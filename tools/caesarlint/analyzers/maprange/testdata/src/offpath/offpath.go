// Package offpath is golden input for the maprange analyzer: its import
// path is not the consensus core, so ranging over a map is fine.
package offpath

func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
