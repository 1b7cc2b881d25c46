package scenario

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseSpec feeds arbitrary bytes to ParseSpec, the reader of
// -scenario files, seeded with the example specs under
// examples/scenarios. Nothing may panic, and a spec that parses and
// normalizes must survive MarshalJSONSpec → ParseSpec describing the
// same world. The target never builds a world: build allocation grows
// with the spec, and Describe already walks the whole call graph.
func FuzzParseSpec(f *testing.F) {
	files, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(files) == 0 {
		f.Fatalf("no seed specs under examples/scenarios: %v", err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return
		}
		want, err := Describe(spec)
		if err != nil {
			return // parses but does not normalize: rejected at compile time
		}
		out, err := MarshalJSONSpec(spec)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		back, err := ParseSpec(out)
		if err != nil {
			t.Fatalf("marshaled spec does not parse: %v\n%s", err, out)
		}
		got, err := Describe(back)
		if err != nil {
			t.Fatalf("marshaled spec no longer normalizes: %v\n%s", err, out)
		}
		if got != want {
			t.Fatalf("JSON round trip changed the world:\n%s\nwant:\n%s", got, want)
		}
	})
}
