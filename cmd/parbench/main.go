// Command parbench regenerates the paper's Table 3: the loop
// parallelization measurements for the alvinn and ear benchmarks,
// including the per-loop classification detail.
//
// Usage:
//
//	parbench [-detail]
package main

import (
	"flag"
	"fmt"
	"os"

	"wlpa/internal/bench"
)

func main() {
	detail := flag.Bool("detail", false, "print the per-loop classification")
	flag.Parse()
	rows, err := bench.RunTable3()
	if err != nil {
		fmt.Fprintf(os.Stderr, "parbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(bench.FormatTable3(rows))
	if !*detail {
		return
	}
	for _, r := range rows {
		fmt.Println(r.Report)
	}
}
