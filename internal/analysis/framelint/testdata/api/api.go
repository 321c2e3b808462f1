// Package api is a miniature EARTH API surface for framelint's tests:
// just the type and method names the analyzer keys on. Bodies are
// no-ops — only the shapes matter.
package api

type NodeID int

type ThreadBody func(Ctx)

type Frame struct{ Home NodeID }

func NewFrame(home NodeID, nthreads, nslots int) *Frame { return &Frame{Home: home} }

func (f *Frame) SetThread(id int, body ThreadBody) *Frame    { return f }
func (f *Frame) InitSync(s, count, reset, thread int) *Frame { return f }
func (f *Frame) Dec(s int) (fired bool, thread int)          { return false, 0 }

type Ctx interface {
	Node() NodeID
	Spawn(f *Frame, thread int)
	Sync(f *Frame, slot int)
	Get(owner NodeID, nbytes int, read func() func(), f *Frame, slot int)
	Put(owner NodeID, nbytes int, write func(), f *Frame, slot int)
	Invoke(node NodeID, argBytes int, body ThreadBody)
	Post(node NodeID, argBytes int, handler ThreadBody)
	Token(argBytes int, body ThreadBody)
}

type WordGetter interface {
	GetWord(owner NodeID, src, dst *uint64, f *Frame, slot int)
}

func Rsync(c Ctx, f *Frame, slot int) { c.Sync(f, slot) }

func GetSyncI64(c Ctx, owner NodeID, src, dst *int, f *Frame, slot int) {}

func BlkMovBytesV(c Ctx, owner NodeID, sizes []int, writes []func(), f *Frame, slot int) {}

// RetryPolicy mirrors earth.RetryPolicy.
type RetryPolicy struct {
	Lease  int64
	Jitter float64
}

// Config mirrors earth.Config.
type Config struct {
	Nodes     int
	JitterPct float64
	Seed      int64
}
