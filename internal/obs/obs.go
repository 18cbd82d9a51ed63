// Package obs is the debug HTTP plane for ccx processes: one listener that
// serves the metrics registry (Prometheus text exposition and JSON), the
// span ring of internal/tracing as JSONL (/debug/spans — where every block's
// time went and why its method was chosen), and net/http/pprof; plus the
// -metrics-interval dump loop and the observability flags the daemons share.
//
// Everything is opt-in: a nil registry or ring serves empty documents.
package obs

import "ccx/internal/tracing"

// DecisionLog, NewDecisionLog and DefaultLogSize are the names benchmark/
// still builds against (the decision ring they named is gone: a decision is
// a decide span in the one tracing.Ring). Nothing in this module uses them;
// they go when the harness is edited — see ROADMAP.
type DecisionLog = tracing.Ring

const DefaultLogSize = tracing.DefaultRingSize

func NewDecisionLog(size int) *DecisionLog { return tracing.NewRing(size) }
