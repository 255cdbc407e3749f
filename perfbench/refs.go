package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"cobra/internal/sim"
)

// refsJSON holds, per workload and seed, the digest of every simulated
// cell's sim.Metrics (service-mix: of every distinct spec's answer),
// recorded from the runs README.md describes: the default seed 42 and
// the held-out seed 1234. A run at a seed without references still
// checks that every pass reproduces the first.
//
//go:embed refs.json
var refsJSON []byte

// digest fingerprints a complete simulated result.
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8]), nil
}

// cellChecker checks each pass's cells against the first pass of the
// run and against the stored references for the seed, if any.
type cellChecker struct {
	first map[string]string
	ref   map[string]string
}

// loadRefs returns the stored digests of workload at seed, or nil if
// the seed has none.
func loadRefs(workload string, seed uint64) (map[string]string, error) {
	var all map[string]map[string]map[string]string
	if err := json.Unmarshal(refsJSON, &all); err != nil {
		return nil, fmt.Errorf("reading refs.json: %w", err)
	}
	return all[workload][strconv.FormatUint(seed, 10)], nil
}

func newCellChecker(workload string, seed uint64) (*cellChecker, error) {
	ref, err := loadRefs(workload, seed)
	return &cellChecker{ref: ref}, err
}

// checkPass counts one operation per expected cell. A cell fails when
// it is missing, carries no simulated work, or differs from its first
// or stored digest.
func (c *cellChecker) checkPass(r *runner, cells map[string]sim.Metrics) {
	got := map[string]string{}
	for k, m := range cells {
		d, err := digest(m)
		if err != nil {
			r.check(false, "cell %s: %v", k, err)
			continue
		}
		got[k] = d
	}
	if c.first == nil {
		c.first = got
		r.notes["digests"] = got
		r.notes["refs_checked"] = c.ref != nil
	}
	want := c.first
	if c.ref != nil {
		want = c.ref
	}
	for _, k := range sortedKeys(want) {
		m, ok := cells[k]
		switch {
		case !ok:
			r.check(false, "cell %s missing", k)
		case m.Cycles <= 0 || m.Ctr.Instructions == 0:
			r.check(false, "cell %s simulated no work", k)
		case got[k] != c.first[k]:
			r.check(false, "cell %s: digest %s differs from the run's first pass %s", k, got[k], c.first[k])
		default:
			r.check(got[k] == want[k], "cell %s: digest %s, reference %s", k, got[k], want[k])
		}
	}
	for _, k := range sortedKeys(cells) {
		if _, ok := want[k]; !ok {
			r.check(false, "unexpected cell %s", k)
		}
	}
}
