package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"protean/internal/controlplane"
	"protean/internal/experiments"
	"protean/internal/metrics"
)

// checkConservation verifies that every request offered to a batch
// scenario or cell ended exactly once: offered = completed + dropped.
func checkConservation(label string, a metrics.Availability) error {
	if a.Offered <= 0 {
		return fmt.Errorf("%s: no requests offered", label)
	}
	if a.Offered != a.Completed+a.Dropped {
		return fmt.Errorf("%s: offered %d != completed %d + dropped %d",
			label, a.Offered, a.Completed, a.Dropped)
	}
	return nil
}

// checkPlane verifies the live plane's books for every tenant: each
// request the benchmark offered was admitted, shed or rejected exactly
// once, and after Drain every admitted request completed or was
// dropped. offered maps tenant id to requests the benchmark ingested.
func checkPlane(offered map[string]int, usages []controlplane.Usage) []error {
	var errs []error
	seen := make(map[string]bool, len(usages))
	for _, u := range usages {
		seen[u.Tenant] = true
		if got := u.Admitted + u.Shed + u.Rejected; got != offered[u.Tenant] {
			errs = append(errs, fmt.Errorf("%s: admitted %d + shed %d + rejected %d != offered %d",
				u.Tenant, u.Admitted, u.Shed, u.Rejected, offered[u.Tenant]))
		}
		if u.Admitted != u.Completed+u.Dropped {
			errs = append(errs, fmt.Errorf("%s: admitted %d != completed %d + dropped %d after drain",
				u.Tenant, u.Admitted, u.Completed, u.Dropped))
		}
	}
	ids := make([]string, 0, len(offered))
	for id := range offered {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if !seen[id] {
			errs = append(errs, fmt.Errorf("%s: offered %d requests but has no usage account", id, offered[id]))
		}
	}
	return errs
}

// checkTable verifies that a table built from the benchmark's own
// scenario results equals the experiment harness's table cell for cell.
func checkTable(got, want *experiments.Table) error {
	if got == nil || want == nil {
		return fmt.Errorf("missing table (got %v, want %v)", got != nil, want != nil)
	}
	if strings.Join(got.Headers, "|") != strings.Join(want.Headers, "|") {
		return fmt.Errorf("headers %q != harness %q", got.Headers, want.Headers)
	}
	if len(got.Rows) != len(want.Rows) {
		return fmt.Errorf("%d rows != harness %d", len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		if strings.Join(got.Rows[i], "|") != strings.Join(want.Rows[i], "|") {
			return fmt.Errorf("row %d %q != harness %q", i, got.Rows[i], want.Rows[i])
		}
	}
	return nil
}

// checkRepeat verifies that a repeat reproduced every modelled reading
// bit for bit.
func checkRepeat(first, next map[string]float64) error {
	keys := make([]string, 0, len(first))
	for k := range first {
		keys = append(keys, k)
	}
	for k := range next {
		if _, ok := first[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var diffs []string
	for _, k := range keys {
		a, okA := first[k]
		b, okB := next[k]
		if !okA || !okB || math.Float64bits(a) != math.Float64bits(b) {
			diffs = append(diffs, fmt.Sprintf("%s: %v then %v", k, a, b))
		}
	}
	if len(diffs) > 0 {
		return fmt.Errorf("modelled readings changed between repeats: %s", strings.Join(diffs, "; "))
	}
	return nil
}

// checkDigest verifies that a repeat rendered byte-identical outputs.
func checkDigest(first, next string) error {
	if first == next {
		return nil
	}
	i := 0
	for i < len(first) && i < len(next) && first[i] == next[i] {
		i++
	}
	return fmt.Errorf("rendered outputs differ between repeats from byte %d", i)
}
