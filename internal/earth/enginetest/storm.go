package enginetest

import (
	"earth/internal/earth"
	"earth/internal/sim"
)

// StormProgram is the fine-grain program both engines' own benchmarks and
// allocation budgets run (this file is the package's only non-test source,
// so their tests can import it): tokens zero-grain tokens, pooled for
// stealing, each fetching a word from another node and signalling the
// root's completion frame once it has it.
func StormProgram(nodes, tokens int) earth.ThreadBody {
	cells := make([]float64, nodes)
	return func(c earth.Ctx) {
		done := earth.NewFrame(c.Node(), 1, 1)
		done.InitSync(0, tokens, 0, 0)
		done.SetThread(0, func(earth.Ctx) {})
		for i := 0; i < tokens; i++ {
			from := earth.NodeID(i % nodes)
			c.Token(16, func(c earth.Ctx) {
				var got float64
				g := earth.NewFrame(c.Node(), 1, 1)
				g.InitSync(0, 1, 0, 0)
				g.SetThread(0, func(c earth.Ctx) { c.Sync(done, 0) })
				c.Compute(sim.Microsecond)
				earth.GetSyncF64(c, from, &cells[from], &got, g, 0)
			})
		}
	}
}
