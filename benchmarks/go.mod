// The benchmark is a module of its own so that building and testing it
// never changes what `go build ./... && go test ./...` does at the
// repository root.  Its import path stays under cmtk/, which is what lets
// it import cmtk/internal/... through the replace below.
module cmtk/benchmarks

go 1.22

require cmtk v0.0.0

replace cmtk => ../
