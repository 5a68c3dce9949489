package campaign

import "fmt"

// FindingKey is the deduplication identity of a finding in every mode,
// "class@site", with the site from vm.Machine.FaultSite: core.Bug.Key and
// fuzz.Crash.Key return it, so both modes key one bug alike.
func FindingKey(class string, site uint32) string {
	return fmt.Sprintf("%s@%#x", class, site)
}
