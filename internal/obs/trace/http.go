package trace

import "net/http"

// DebugPath is where a debug server exposes the live flight recorder,
// next to obs.DebugPath's metric snapshot.
const DebugPath = "/debug/phoenixtrace"

// Handler returns an http.Handler serving the recorder's current spans
// as a dump (the JSON a dump file holds), newest ring contents sorted
// by start time. Mount it at DebugPath via obs.StartDebugServer's extra
// mounts. A nil recorder serves an empty span list.
func Handler(r *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		writeSpans(w, r.Snapshot())
	})
}
