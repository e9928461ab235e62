package pmsort

import (
	"fmt"
	"reflect"
	"testing"

	"pmsort/internal/comm"
	"pmsort/internal/native"
	"pmsort/internal/workload"
)

// TestStreamedDeliveryConformance pins that the receive-driven delivery
// consumers (DeliveryOptions.Batch unset — the default) produce output
// byte-identical to the original materialize-then-process path
// (Batch: true), for both sorters, both kernels, and both exchange
// algorithms, on the native backend across several workloads. The
// torture harness additionally randomizes the knob across seeds and
// backends; this test is the direct A/B pin.
func TestStreamedDeliveryConformance(t *testing.T) {
	const p, perPE = 5, 600
	for _, algo := range []string{"ams", "rlm"} {
		for _, keyed := range []bool{false, true} {
			for _, strat := range []DeliveryStrategy{DeliverySimple, DeliveryDeterministic} {
				for _, kind := range []workload.Kind{workload.Uniform, workload.DupHeavy, workload.OnePE} {
					name := fmt.Sprintf("%s/keyed=%v/%v/%v", algo, keyed, strat, kind)
					t.Run(name, func(t *testing.T) {
						run := func(batch bool) [][]uint64 {
							cfg := Config{Levels: 2, Seed: 99}
							cfg.Delivery.Strategy = strat
							cfg.Delivery.Exchange = DeliveryExchange(len(name) % 2)
							cfg.Delivery.Batch = batch
							if keyed {
								cfg.Key = u64Key
							}
							outs := make([][]uint64, p)
							native.New(p).Run(func(c comm.Communicator) {
								data := workload.Local(kind, 7, p, perPE, c.Rank())
								var out []uint64
								if algo == "ams" {
									out, _ = AMSSort(c, data, u64Less, cfg)
								} else {
									out, _ = RLMSort(c, data, u64Less, cfg)
								}
								outs[c.Rank()] = out
							})
							return outs
						}
						batch, streamed := run(true), run(false)
						if !reflect.DeepEqual(batch, streamed) {
							t.Fatalf("streamed output differs from batch output")
						}
					})
				}
			}
		}
	}
}
