// Service walkthrough: stand up the rpqd HTTP service in-process, register
// a specification and several runs over the wire, then answer a batch of
// regular path queries across every run with one request — exactly the
// paper's serving scenario: labels are computed once at derivation time,
// queries are answered from stored labels for as long as the runs live.
//
// The same requests work against a standalone daemon:
//
//	go run ./cmd/rpqd -addr :8080
//	curl -s localhost:8080/healthz
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"

	"provrpq"
	"provrpq/internal/server"
)

func main() {
	// 1. The service: a catalog (shared plan cache, per-CPU batch fan-out)
	//    behind the HTTP handler, on a random local port.
	cat := provrpq.NewCatalog(provrpq.CatalogOptions{})
	srv := server.New(cat, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- http.Serve(ln, srv.Handler()) }()
	base := "http://" + ln.Addr().String()
	fmt.Println("serving on", base)

	// 2. Register a specification: a pipeline with a recursive cleaning
	//    phase, shipped as JSON.
	spec, err := provrpq.NewSpecBuilder().
		Start("Pipeline").
		Chain("Pipeline", "ingest", "Clean", "archive").
		Chain("Clean", "scrub", "Clean", "emit").
		Chain("Clean", "scrub", "emit").
		Build()
	if err != nil {
		log.Fatal(err)
	}
	specJSON, err := spec.MarshalJSON()
	if err != nil {
		log.Fatal(err)
	}
	post(base+"/v1/specs", map[string]any{"name": "pipeline", "spec": json.RawMessage(specJSON)})

	// 3. Derive three runs of it server-side — three executions of one
	//    workflow, each with its own size and shape.
	for i := 1; i <= 3; i++ {
		resp := post(base+"/v1/runs", map[string]any{
			"name": fmt.Sprintf("run-%d", i), "spec": "pipeline",
			"derive": map[string]any{"seed": i, "target_edges": 150 * i},
		})
		fmt.Printf("derived %s: %v nodes, %v edges\n", resp["name"], resp["nodes"], resp["edges"])
	}

	// 4. One batch request: two queries across all three runs. Each query
	//    compiles once; every other (run, query) cell reuses the plan.
	batch := post(base+"/v1/batch", map[string]any{
		"queries":    []string{"_*.emit._*.archive", "Clean+.emit"},
		"count_only": true,
	})
	fmt.Println("\nbatch results (runs × queries):")
	for _, item := range batch["results"].([]any) {
		m := item.(map[string]any)
		fmt.Printf("  %-7s %-22s %v pairs\n", m["run"], m["query"], m["count"])
	}

	// 5. The metrics endpoint shows the economics: hits dominate misses
	//    because runs of one specification share compiled plans.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncatalog and plan cache, from /metrics:")
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		if l := sc.Text(); strings.HasPrefix(l, "provrpq_catalog_") || strings.HasPrefix(l, "provrpq_plan_cache_") {
			fmt.Println(" ", l)
		}
	}
	resp.Body.Close()

	// 6. Tear down: close the listener and join the serve goroutine so
	//    the walkthrough exits with nothing left running.
	_ = ln.Close()
	<-serveErr
}

func post(url string, body any) map[string]any {
	data, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		log.Fatal(err)
	}
	return decode(resp)
}

func decode(resp *http.Response) map[string]any {
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode >= 400 {
		log.Fatalf("%s: %v", resp.Status, out["error"])
	}
	return out
}
