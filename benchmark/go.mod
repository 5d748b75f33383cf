module provrpq/benchmark

go 1.24

require provrpq v0.0.0

replace provrpq => ../
