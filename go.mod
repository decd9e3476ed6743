module repro

// 1.22 is the minimum the code needs; CI and every measurement run 1.24.
// internal/stats/source.go reproduces math/rand's seeded stream from
// generator constants it re-derives from math/rand itself at init, and
// is differentially tested against it on whatever toolchain runs.
go 1.22
