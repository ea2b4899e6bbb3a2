package bench

import (
	"context"
	"fmt"
	"strings"

	"waitfreebn/internal/bn"
	"waitfreebn/internal/core"
	"waitfreebn/internal/dataset"
	"waitfreebn/internal/graph"
	"waitfreebn/internal/search"
	"waitfreebn/internal/structure"
)

// Accuracy runs the learning-quality experiment the paper leaves implicit:
// both learning paradigms against a known ground-truth network across
// sample sizes, reporting skeleton F1, structural Hamming distance to the
// true CPDAG, and held-out log-likelihood gap to the true model. The
// potential table for each m is built with the wait-free primitive.
//
// Supported networks: asia, cancer, chain10, naivebayes10.
func Accuracy(network string, ms []int, seed uint64, p int) (string, error) {
	net, err := accuracyNetwork(network)
	if err != nil {
		return "", err
	}
	if p <= 0 {
		p = 4
	}
	test, err := net.Sample(50000, seed+1, p)
	if err != nil {
		return "", err
	}
	llTrue := net.MeanLogLikelihood(test, p)
	trueCPDAG := structure.CPDAGFromDAG(net.DAG())

	var b strings.Builder
	fmt.Fprintf(&b, "== Accuracy: %s (%d vars, %d edges), held-out LL(true) = %.4f ==\n",
		net.Name(), net.NumVars(), net.DAG().NumEdges(), llTrue)
	fmt.Fprintf(&b, "%-10s %28s %28s\n", "", "constraint (cheng, g-test)", "score (hill climbing)")
	fmt.Fprintf(&b, "%-10s %8s %6s %12s %8s %6s %12s\n",
		"m", "F1", "SHD", "LL gap", "F1", "SHD", "LL gap")

	for _, m := range ms {
		train, err := net.Sample(m, seed+uint64(m), p)
		if err != nil {
			return "", err
		}
		pt, _, err := core.BuildCtx(context.Background(), train, core.Options{P: p})
		if err != nil {
			return "", err
		}

		// Constraint-based with the G test (scale-aware threshold).
		cb, err := structure.LearnFromTable(pt, structure.Config{P: p, Test: structure.TestG, Alpha: 0.01})
		if err != nil {
			return "", err
		}
		cbMetrics := structure.ComparePDAG(cb.PDAG, net.DAG())
		cbGap := llGap(cb.PDAG, train, test, net, llTrue, p)

		// Score-based hill climbing.
		hc, err := search.HillClimbCtx(context.Background(), pt, search.Config{P: p})
		if err != nil {
			return "", err
		}
		hcCPDAG := structure.CPDAGFromDAG(hc.DAG)
		hcMetrics := structure.PDAGMetrics{
			Skeleton: structure.CompareSkeleton(hc.DAG.Skeleton(), net.DAG()),
			SHD:      structure.SHD(hcCPDAG, trueCPDAG),
		}
		hcGap := llGapDAG(hc.DAG, train, test, llTrue, p)

		fmt.Fprintf(&b, "%-10d %8.2f %6d %12.4f %8.2f %6d %12.4f\n",
			m, cbMetrics.Skeleton.F1, cbMetrics.SHD, cbGap,
			hcMetrics.Skeleton.F1, hcMetrics.SHD, hcGap)
	}
	return b.String(), nil
}

func accuracyNetwork(name string) (*bn.Network, error) {
	switch name {
	case "asia", "":
		return bn.Asia(), nil
	case "cancer":
		return bn.Cancer(), nil
	case "chain10":
		return bn.Chain(10, 2, 0.85), nil
	case "naivebayes10":
		return bn.NaiveBayes(10, 2, 0.85), nil
	default:
		return nil, fmt.Errorf("bench: unknown accuracy network %q", name)
	}
}

// llGap fits CPTs on a PDAG's DAG completion and returns llTrue minus the
// fitted model's held-out mean log-likelihood (0 = as good as the truth).
func llGap(p *graph.PDAG, train, test *dataset.Dataset, net *bn.Network, llTrue float64, workers int) float64 {
	dag, err := p.ToDAG()
	if err != nil {
		return -1
	}
	return llGapDAG(dag, train, test, llTrue, workers)
}

func llGapDAG(dag *graph.DAG, train, test *dataset.Dataset, llTrue float64, workers int) float64 {
	fitted, err := bn.FitCPTs("fit", dag, train, 1, workers)
	if err != nil {
		return -1
	}
	return llTrue - fitted.MeanLogLikelihood(test, workers)
}
