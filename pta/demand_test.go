package pta_test

import (
	"reflect"
	"testing"

	"wlpa/pta"
)

const demandSrc = `
#include <stdlib.h>
int g; int h;
int *gp; int *hp; int **pp;
void set(int **dst, int *v) { *dst = v; }
int main(void) {
    int x;
    int *lp;
    set(&gp, &g);
    hp = (int*)malloc(sizeof(int));
    lp = &x;
    pp = &gp;
    if (g) gp = &h;
    *lp = **pp;
    return 0;
}`

// TestSampleQuerySitesDeterministic pins that site sampling is a pure
// function of the result (the point-query benchmarks rely on it) and
// respects its cap.
func TestSampleQuerySitesDeterministic(t *testing.T) {
	res, err := pta.AnalyzeSource("demand.c", demandSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := res.SampleQuerySites(16)
	b := res.SampleQuerySites(16)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("SampleQuerySites not deterministic")
	}
	if len(a) == 0 || len(a) > 16 {
		t.Fatalf("SampleQuerySites(16) returned %d sites", len(a))
	}
	res2, err := pta.AnalyzeSource("demand.c", demandSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c := res2.SampleQuerySites(16); !reflect.DeepEqual(a, c) {
		t.Fatal("SampleQuerySites differs across identical analyses")
	}
}
