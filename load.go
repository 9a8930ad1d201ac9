package splay

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/splaykit/splay/internal/apps"
	"github.com/splaykit/splay/internal/config"
)

// The config plane: scenario documents. A document is a declarative,
// human-authorable description of a Scenario — testbed, applications
// with catalog-validated parameters, churn, faults, assertions, collect
// — in a strict YAML subset with human units ("30s", "512kbps", "64KB",
// "50%"). LoadScenario compiles one to a Scenario; the compiled form is
// the canonical wire format, so a document and its handwritten-Go
// equivalent produce byte-identical runs (invariant 11).

// ConfigError is the typed error every config-plane entry point
// returns: a machine-readable code plus the document position and
// schema path of the offending field. Nothing about a bad document is
// ever silently defaulted.
type ConfigError = config.Error

// Catalog is the app catalog: the typed parameter schemas documents are
// validated against.
type Catalog = config.Catalog

// AppSchema describes one catalog application.
type AppSchema = apps.Schema

// CatalogParam is one typed parameter schema.
type CatalogParam = apps.Param

// BuiltinCatalog returns the catalog of built-in applications (chord,
// pastry, cyclon, epidemic, bittorrent).
func BuiltinCatalog() *Catalog { return config.Builtins() }

// IsConfigDocument reports whether data looks like a scenario document
// rather than wire JSON.
func IsConfigDocument(data []byte) bool { return config.IsDocument(data) }

// CompileConfig compiles a scenario document to the canonical wire
// form (the Scenario.Marshal format) without instantiating a Scenario:
// the bytes splayctl submits and the hosting plane admits. The error,
// when non-nil, is a *ConfigError.
func CompileConfig(data []byte) ([]byte, error) {
	wire, perr := config.Compile(data, config.Options{})
	if perr != nil {
		return nil, perr
	}
	return wire, nil
}

// ValidateConfig checks a scenario document against the built-in
// catalog without running anything. The error, when non-nil, is a
// *ConfigError.
func ValidateConfig(data []byte) error {
	if perr := config.Validate(data, config.Options{}); perr != nil {
		return perr
	}
	return nil
}

// LoadScenario compiles an in-memory scenario document into a
// Scenario. Churn trace references are declined (a typed
// ErrUnsupported): in-memory documents have no directory to resolve
// them against — use LoadScenarioFile.
func LoadScenario(data []byte) (Scenario, error) {
	return loadScenario(data, config.Options{})
}

// LoadScenarioFile reads and compiles a scenario document; churn trace
// references resolve relative to the document's directory.
func LoadScenarioFile(path string) (Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("splay: %w", err)
	}
	dir := filepath.Dir(path)
	return loadScenario(data, config.Options{
		Open: func(ref string) ([]byte, error) {
			if !filepath.IsAbs(ref) {
				ref = filepath.Join(dir, ref)
			}
			return os.ReadFile(ref)
		},
	})
}

func loadScenario(data []byte, opt config.Options) (Scenario, error) {
	wire, perr := config.Compile(data, opt)
	if perr != nil {
		return Scenario{}, perr
	}
	sc, err := UnmarshalScenario(wire)
	if err != nil {
		// The compiler emits the canonical wire format; a decode failure
		// here is a bug, not a user error.
		return Scenario{}, fmt.Errorf("splay: compiled scenario does not decode: %w", err)
	}
	return sc, nil
}
