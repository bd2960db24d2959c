package trace

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Render writes an EXPLAIN ANALYZE-style text tree for a finished
// span: one line per span with its duration and attributes, children
// indented under their parent in attach (execution) order.
//
//	run  (actual time=1.234ms)  query=FriendReach semantics=nre
//	├─ parse  (actual time=0.002ms)  cached=true
//	└─ select  (actual time=1.101ms)
//	   ├─ hop  (actual time=0.950ms)  darpe=Knows*1..3 kind=counted ...
//	   ...
func Render(w io.Writer, s *Span) {
	if s == nil {
		fmt.Fprintln(w, "(no trace)")
		return
	}
	renderSpan(w, s, "", "")
}

func renderSpan(w io.Writer, s *Span, prefix, childPrefix string) {
	var b strings.Builder
	b.WriteString(prefix)
	b.WriteString(s.Name())
	fmt.Fprintf(&b, "  (actual time=%s)", fmtDur(s.Duration()))
	for _, a := range s.Attrs() {
		fmt.Fprintf(&b, "  %s=%v", a.Key, a.Val)
	}
	fmt.Fprintln(w, b.String())
	children := s.Children()
	for i, c := range children {
		if i == len(children)-1 {
			renderSpan(w, c, childPrefix+"└─ ", childPrefix+"   ")
		} else {
			renderSpan(w, c, childPrefix+"├─ ", childPrefix+"│  ")
		}
	}
}

// fmtDur renders a duration in milliseconds with microsecond
// precision, the EXPLAIN ANALYZE convention.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(d)/float64(time.Millisecond))
}
