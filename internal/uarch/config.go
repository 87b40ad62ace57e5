package uarch

// MemDepMode selects how loads treat older unresolved store addresses.
type MemDepMode int

const (
	// MemDepPredict uses the collision-history predictor (default).
	MemDepPredict MemDepMode = iota
	// MemDepAlwaysSpeculate always bypasses unknown store addresses.
	MemDepAlwaysSpeculate
	// MemDepAlwaysWait always waits for older store addresses.
	MemDepAlwaysWait
)

// PredictorKind selects the conditional branch predictor.
type PredictorKind int

const (
	// PredGshare is the evaluation's default (global history 10 bits,
	// 32K entries).
	PredGshare PredictorKind = iota
	// PredTAGE is the 8-component TAGE used in Fig 14.
	PredTAGE
	// PredOracle predicts perfectly (the "SS no penalty" idealization of
	// Fig 13 uses ZeroMispredictPenalty instead, but an oracle is useful
	// for ablations).
	PredOracle
)

// CacheConfig describes one cache level.
type CacheConfig struct {
	SizeBytes  int
	Ways       int
	LineBytes  int
	HitLatency int
}

// Config holds every model parameter of Table I plus the experiment
// knobs. The same struct configures both cores; fields that apply to only
// one (e.g. MaxDistance) are ignored by the other.
type Config struct {
	Name string

	FetchWidth      int
	FrontEndLatency int // fetch-to-dispatch stages: SS 8, STRAIGHT 6
	ROBSize         int
	IssueWidth      int
	SchedulerSize   int
	RegFileSize     int // SS physical registers; STRAIGHT derives MAX_RP
	LQSize          int
	SQSize          int

	NumALU int
	NumMul int
	NumDiv int
	NumBr  int
	NumMem int

	CommitWidth int

	Predictor      PredictorKind
	GshareHistBits int
	GshareEntries  int
	BTBEntries     int
	RASEntries     int

	L1I        CacheConfig
	L1D        CacheConfig
	L2         CacheConfig
	L3         *CacheConfig // nil = absent (2-way models have no L3)
	MemLatency int

	// MaxDistance is the STRAIGHT model's maximum operand distance
	// (31 in the evaluated models; MAX_RP = MaxDistance + ROBSize).
	MaxDistance int

	// ZeroMispredictPenalty idealizes recovery: the correct path is
	// refetched in the very next cycle with no walk or redirect cost
	// (the "SS no penalty" bars of Fig 13).
	ZeroMispredictPenalty bool

	// NoPrefetch disables the L1D stream prefetcher (ablation).
	NoPrefetch bool

	// MSHRs caps concurrently outstanding misses (0 = default 8).
	MSHRs int

	// MemDep selects the memory-dependence policy (ablation; the default
	// is the collision-history predictor).
	MemDep MemDepMode

	// SPAddPerGroup caps SPADD instructions renamed per cycle
	// (STRAIGHT §III-B; the cascaded SP adders limit).
	SPAddPerGroup int

	// CGBlockSize caps the instructions per coarse-grain block in the
	// CG-OoO comparison core (arXiv 1606.01607): blocks issue in order
	// internally, out of order with respect to each other. Blocks also
	// end at every control instruction. 0 = the cgcore default (8).
	CGBlockSize int

	// FuncLatency overrides (zero = defaults: ALU 1, MUL 3, DIV 20).
	ALULatency int
	MulLatency int
	DivLatency int
}

func (c *Config) alu() int {
	if c.ALULatency == 0 {
		return 1
	}
	return c.ALULatency
}

func (c *Config) mul() int {
	if c.MulLatency == 0 {
		return 3
	}
	return c.MulLatency
}

func (c *Config) div() int {
	if c.DivLatency == 0 {
		return 20
	}
	return c.DivLatency
}

// LatencyFor returns the execution latency of a class.
//
//lint:hotpath
func (c *Config) LatencyFor(cl Class) int {
	switch cl {
	case ClassMul:
		return c.mul()
	case ClassDiv:
		return c.div()
	default:
		return c.alu()
	}
}

// MaxRP returns the STRAIGHT physical register count:
// max distance + ROB entries (§III-B).
func (c Config) MaxRP() int { return c.MaxDistance + c.ROBSize }

// Common cache settings of Table I.
func tableICaches(threeLevel bool) (l1i, l1d, l2 CacheConfig, l3 *CacheConfig) {
	l1i = CacheConfig{SizeBytes: 32 << 10, Ways: 4, LineBytes: 64, HitLatency: 4}
	l1d = CacheConfig{SizeBytes: 32 << 10, Ways: 4, LineBytes: 64, HitLatency: 4}
	l2 = CacheConfig{SizeBytes: 256 << 10, Ways: 4, LineBytes: 64, HitLatency: 12}
	if threeLevel {
		l3 = &CacheConfig{SizeBytes: 2 << 20, Ways: 4, LineBytes: 64, HitLatency: 42}
	}
	return
}

func baseConfig(name string) Config {
	return Config{
		Name:           name,
		GshareHistBits: 10,
		GshareEntries:  32 << 10,
		BTBEntries:     4096,
		RASEntries:     16,
		MemLatency:     200,
		SPAddPerGroup:  1,
	}
}

// SS2Way is the 2-way superscalar model of Table I.
func SS2Way() Config {
	c := baseConfig("SS-2way")
	c.FetchWidth = 2
	c.FrontEndLatency = 8
	c.ROBSize = 64
	c.IssueWidth = 2
	c.SchedulerSize = 16
	c.RegFileSize = 96
	c.LQSize, c.SQSize = 48, 48
	c.NumALU, c.NumMul, c.NumDiv, c.NumBr, c.NumMem = 2, 1, 1, 2, 2
	c.CommitWidth = 3
	c.L1I, c.L1D, c.L2, c.L3 = tableICaches(false)
	return c
}

// Straight2Way is the 2-way STRAIGHT model of Table I.
func Straight2Way() Config {
	c := SS2Way()
	c.Name = "STRAIGHT-2way"
	c.FrontEndLatency = 6
	c.MaxDistance = 31 // MAX_RP = 31 + 64 = 95 (+zero) ~ the 96-entry RF
	return c
}

// SS4Way is the 4-way superscalar model of Table I.
func SS4Way() Config {
	c := baseConfig("SS-4way")
	c.FetchWidth = 6
	c.FrontEndLatency = 8
	c.ROBSize = 224
	c.IssueWidth = 4
	c.SchedulerSize = 96
	c.RegFileSize = 256
	c.LQSize, c.SQSize = 72, 56
	c.NumALU, c.NumMul, c.NumDiv, c.NumBr, c.NumMem = 4, 2, 1, 4, 4
	c.CommitWidth = 4
	c.L1I, c.L1D, c.L2, c.L3 = tableICaches(true)
	return c
}

// Straight4Way is the 4-way STRAIGHT model of Table I.
func Straight4Way() Config {
	c := SS4Way()
	c.Name = "STRAIGHT-4way"
	c.FrontEndLatency = 6
	c.MaxDistance = 31 // MAX_RP = 31 + 224 = 255 (+zero) ~ the 256-entry RF
	return c
}

// memBound tightens a Table I model into the memory-bound regime the
// idle-skip fast path targets. This is a kernel-benchmark
// configuration, not a paper model: first-level caches shrunk until the
// working set thrashes, a small L2, no L3, no prefetcher, few miss
// registers, and a long memory latency, so runs are dominated by
// drained-pipeline miss windows.
func memBound(c Config) Config {
	c.Name += "-membound"
	c.L1I = CacheConfig{SizeBytes: 512, Ways: 2, LineBytes: 64, HitLatency: 4}
	c.L1D = CacheConfig{SizeBytes: 512, Ways: 2, LineBytes: 64, HitLatency: 4}
	c.L2 = CacheConfig{SizeBytes: 1 << 10, Ways: 2, LineBytes: 64, HitLatency: 12}
	c.L3 = nil
	c.NoPrefetch = true
	c.MemLatency = 1000
	c.MSHRs = 2
	return c
}

// SS4WayMemBound is the memory-bound benchmark variant of SS4Way.
func SS4WayMemBound() Config { return memBound(SS4Way()) }

// CG4Way is the 4-way coarse-grain OoO comparison model: the SS4Way
// machine with issue constrained to in-order within 8-instruction
// blocks (CG-OoO's block-level out-of-order, arXiv 1606.01607). It
// shares the SS front end, rename and recovery model, so IPC deltas
// against SS4Way isolate the scheduling restriction.
func CG4Way() Config {
	c := SS4Way()
	c.Name = "CG-4way"
	c.CGBlockSize = 8
	return c
}

// CG2Way is the 2-way coarse-grain OoO comparison model (see CG4Way).
func CG2Way() Config {
	c := SS2Way()
	c.Name = "CG-2way"
	c.CGBlockSize = 8
	return c
}

// CG4WayMemBound is the memory-bound benchmark variant of CG4Way.
func CG4WayMemBound() Config { return memBound(CG4Way()) }

// Straight4WayMemBound is the memory-bound benchmark variant of
// Straight4Way.
func Straight4WayMemBound() Config { return memBound(Straight4Way()) }
