package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// -compare A B: A and B are directories of -out result files (the untraced
// runs; traced files are skipped). For every workload x end-to-end metric it
// prints each side's median and quartiles, and judges B against A with the
// metric's bound: "regressed" when B's median is worse than A's by more than
// the bound, "unresolved" when either side's own spread (interquartile range
// over median) exceeds the bound, so that noise is never reported as "no
// change". Comparing a commit with itself (A/A) must come out all "ok".

// loadResults reads every *.json under dir into workload → metric → values.
func loadResults(dir string) (map[string]map[string][]float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	sort.Strings(files)
	out := map[string]map[string][]float64{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if rf.Trace {
			continue
		}
		if !rf.Result.Correct {
			return nil, fmt.Errorf("%s: the run was not correct; its numbers do not count", f)
		}
		if out[rf.Workload] == nil {
			out[rf.Workload] = map[string][]float64{}
		}
		for name, v := range rf.Result.Metrics {
			out[rf.Workload][name] = append(out[rf.Workload][name], v.Value)
		}
	}
	return out, nil
}

// verdict judges side b against baseline a for one metric.
func verdict(m metricSpec, a, b []float64) (string, [3]float64, [3]float64) {
	var qa, qb [3]float64
	qa[0], qa[1], qa[2] = quartiles(a)
	qb[0], qb[1], qb[2] = quartiles(b)
	spread := func(q [3]float64) float64 {
		if q[1] == 0 {
			return 0
		}
		return (q[2] - q[0]) / q[1]
	}
	worse := (qb[1] - qa[1]) / qa[1]
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case spread(qa) > m.Bound || spread(qb) > m.Bound:
		return "unresolved", qa, qb
	case worse > m.Bound:
		return "REGRESSED", qa, qb
	}
	return "ok", qa, qb
}

func compareDirs(w io.Writer, dirA, dirB string) (regressed bool, err error) {
	a, err := loadResults(dirA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(dirB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-18s %-13s %5s | %36s | %36s | %8s %s\n", "workload", "metric", "bound", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "B vs A", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, qa, qb := verdict(m, va, vb)
			regressed = regressed || v == "REGRESSED"
			side := func(q [3]float64, n int) string {
				return fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", q[1], q[0], q[2], n)
			}
			fmt.Fprintf(w, "%-18s %-13s %5.2f | %36s | %36s | %+7.1f%% %s\n", wl.Name, m.Name, m.Bound,
				side(qa, len(va)), side(qb, len(vb)), 100*(qb[1]-qa[1])/qa[1], v)
		}
	}
	return regressed, nil
}
