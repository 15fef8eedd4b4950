package core

// Canonical pipeline stage names: the spans a traced Run emits, in
// execution order. RunOnDie additionally emits "roi" (between generate
// and acquire), Run with Options.Faults emits "inject" (before acquire),
// and an aligned reconstruction emits an "align/residual" estimate span
// — none of which are part of the canonical set, because they are
// conditional.
const (
	StageGenerate    = "generate"
	StageAcquire     = "acquire"
	StageInject      = "inject"
	StageROI         = "roi"
	StageQualityGate = "quality-gate"
	StageDenoise     = "denoise"
	StageAlign       = "align"
	StageAssemble    = "assemble"
	StageReslice     = "reslice"
	StageSegment     = "segment"
	StageNetex       = "netex"
	StageMeasure     = "measure"
	StageScore       = "score"
)

// Stages returns the canonical stage names every default-configured
// traced Run produces, in execution order. Tools validating a trace
// (hifidram tracecheck, the trace-smoke CI target) require exactly this
// set; conditional spans (inject, roi, align/residual) may appear in
// addition.
func Stages() []string {
	return []string{
		StageGenerate, StageAcquire, StageQualityGate, StageDenoise,
		StageAlign, StageAssemble, StageReslice, StageSegment,
		StageNetex, StageMeasure, StageScore,
	}
}
