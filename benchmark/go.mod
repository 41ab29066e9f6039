module medley/benchmark

go 1.24

require medley v0.0.0

replace medley => ../
