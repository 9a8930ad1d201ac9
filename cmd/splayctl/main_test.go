package main

import (
	"bytes"
	"os"
	"testing"
)

// TestCatalogGolden pins "splayctl catalog" — the built-in applications
// as document authors see them — so a change to any descriptor's name,
// kind, default, bounds or doc shows up as a reviewed diff.
func TestCatalogGolden(t *testing.T) {
	t.Parallel()
	want, err := os.ReadFile("testdata/catalog.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := catalogCmd(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("catalog listing drifted from testdata/catalog.golden:\n%s", got.Bytes())
	}
}
