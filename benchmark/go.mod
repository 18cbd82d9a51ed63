// The benchmark is a module of its own so the repo's tier-1 build and the
// benchmark build stay independent; the replace lets it import ccx/internal.
module ccx/benchmark

go 1.22

require ccx v0.0.0

replace ccx => ../
