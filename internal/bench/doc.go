// Package bench regenerates the paper's evaluation artifacts: Table 2
// (benchmark and analysis measurements), Table 3 (parallelization
// measurements), the §7 invocation-graph comparison, and the PTF-policy
// ablation. Each harness returns structured rows and can render the
// table the paper prints. WriteJSON emits one machine-readable record
// per suite program for regression tracking: Table 2's analysis time
// (the same measurement RunTable2One reports), the whole-program
// analysis, the snapshot build, a warm edit and point queries.
package bench
