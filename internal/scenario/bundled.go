package scenario

import (
	"embed"
	"fmt"
	"sort"

	"repro/internal/workload"
)

//go:embed scenarios/*.json
var bundledFS embed.FS

// Bundled returns the scenarios shipped with the repository, sorted by
// name. They double as the conformance suite for the fault-injection and
// reliable-delivery subsystem.
func Bundled() ([]Spec, error) {
	entries, err := bundledFS.ReadDir("scenarios")
	if err != nil {
		return nil, err
	}
	specs := make([]Spec, 0, len(entries))
	for _, e := range entries {
		data, err := bundledFS.ReadFile("scenarios/" + e.Name())
		if err != nil {
			return nil, err
		}
		var sp Spec
		if err := workload.DecodeStrict(data, &sp); err != nil {
			return nil, fmt.Errorf("scenario %s: %w", e.Name(), err)
		}
		if err := sp.Validate(); err != nil {
			return nil, err
		}
		specs = append(specs, sp)
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })
	return specs, nil
}

// Find returns the bundled scenario with the given name.
func Find(name string) (Spec, error) {
	specs, err := Bundled()
	if err != nil {
		return Spec{}, err
	}
	for _, sp := range specs {
		if sp.Name == name {
			return sp, nil
		}
	}
	return Spec{}, fmt.Errorf("scenario: no bundled scenario named %q", name)
}
