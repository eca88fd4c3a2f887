package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// dump is a span list as JSON, {"spans": [...]} with each stage by
// name: what Handler serves at DebugPath and what a dump file — a
// crash's <proc>.ftr.N — holds. One encoding for spans, readable by
// any JSON tool.
type dump struct {
	Spans []Span `json:"spans"`
}

func writeSpans(w io.Writer, spans []Span) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(dump{spans})
}

// WriteDump writes spans to path as a dump. Crash dumps are
// best-effort: one plain write, no fsync — the universe is going down.
func WriteDump(path string, spans []Span) error {
	var b bytes.Buffer
	if err := writeSpans(&b, spans); err != nil {
		return err
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// LoadDump reads a dump file back. A file that is not one whole dump —
// cut short, followed by other bytes, naming a stage there is none of,
// or in another format — is an error naming the file.
func LoadDump(path string) ([]Span, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d dump
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("trace: %s is not a flight-recorder dump: %w", path, err)
	}
	return d.Spans, nil
}
