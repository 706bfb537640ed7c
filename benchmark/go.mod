// The benchmark is a module of its own so that adding it changes no build
// file of the repository; it reaches the program's packages through the
// replace below (the import-path prefix keeps deep/internal/... importable).
module deep/benchmark

go 1.24

require deep v0.0.0

replace deep => ../
