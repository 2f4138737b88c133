// Recovery determinacy tests: killing a worker PE mid-run and recovering
// it by respawn + single-assignment replay must be invisible in the
// results. Every kernel runs at 2/4/8 PEs with a deterministic kill
// schedule (PE 1 dies after its first few worker-to-worker frames), with
// the dynamic mechanisms off and all on, and the dumped arrays are
// compared bit for bit — values and presence masks — against the unkilled
// in-process run. Stats.Recoveries confirms the recovery path actually
// executed rather than the run finishing before the fault fired.
package pods_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	pods "repro"
	"repro/internal/kernels"
)

// killAfterFrames is the deterministic fault schedule: PE 1's endpoint is
// severed the moment it has sent this many frames (data frames and probe
// acks count, so the kill fires mid-run even for a PE whose computation is
// entirely local).
const killAfterFrames = 2

func TestBackendAgreementWithWorkerKill(t *testing.T) {
	for _, k := range kernels.All() {
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			p, err := pods.Compile(k.File(), k.Source)
			if err != nil {
				t.Fatal(err)
			}
			args := k.Args(determinacyN)
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()

			configs := []struct {
				name string
				cfg  pods.ClusterConfig
			}{
				{"base", pods.ClusterConfig{PageElems: determinacyPage}},
				{"steal+adapt+evict", pods.ClusterConfig{
					PageElems: determinacyPage, Steal: true, Adapt: true, CachePages: 2,
					ProbeInterval: 20 * time.Microsecond,
				}},
			}
			for _, pes := range []int{2, 4, 8} {
				for _, c := range configs {
					label := fmt.Sprintf("%s@%d+kill", c.name, pes)

					ref := c.cfg
					ref.NumPEs = pes
					refRes, err := p.ExecuteCluster(ctx, ref, args...)
					if err != nil {
						t.Fatalf("%s: unkilled run: %v", label, err)
					}
					want := gather(t, k, label+"/ref", refRes.Array)
					assertCounters(t, label+"/ref", refRes)

					killed := c.cfg
					killed.NumPEs = pes
					killed.Recover = true
					killed.KillPE = 1
					killed.KillAfter = killAfterFrames
					kRes, err := p.ExecuteCluster(ctx, killed, args...)
					if err != nil {
						t.Fatalf("%s: killed run: %v", label, err)
					}
					assertSame(t, label, gather(t, k, label, kRes.Array), want)
					assertCounters(t, label, kRes)

					// A fired kill cannot yield zero recoveries: the dead
					// endpoint surfaces a down notice and the driver either
					// recovers (counted) or fails the run (caught above) —
					// and because probe acks advance the kill counter every
					// round, the fault always fires before termination.
					st := kRes.Stats()
					if st.Recoveries < 1 {
						t.Errorf("%s: Recoveries = %d, want >= 1", label, st.Recoveries)
						continue
					}
					if st.ReplayedSPs < 1 {
						t.Errorf("%s: ReplayedSPs = %d, want >= 1 after a recovery", label, st.ReplayedSPs)
					}
				}
			}
		})
	}
}
