package relstore

import (
	"reflect"
	"testing"
)

// FuzzSQLParse: Parse agrees with parseOracle, the lexer it replaced, on
// any input — deep-equal statements or identical error text — and never
// panics.  The committed corpus (testdata/fuzz/FuzzSQLParse) holds every
// statement kind, an escaped quote, an unterminated string, a negative
// float and an INSERT longer than Parse's stack token buffer.
func FuzzSQLParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		got, err := Parse(src)
		want, werr := parseOracle(src)
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("Parse(%q) error %v, oracle %v", src, err, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Parse(%q) = %#v, oracle %#v", src, got, want)
		}
	})
}

// Parse parses one SQL statement.
func Parse(src string) (Stmt, error) { return parse(src, nil) }
