package obs

import (
	"bytes"
	"fmt"
	"io"
)

// Artifact names one of the Sink's streamable export formats, the unit
// the serving layer exposes for download.
type Artifact string

const (
	// ArtifactTrace is the Chrome trace-event JSON (WriteChromeTrace).
	ArtifactTrace Artifact = "trace"
	// ArtifactReport is the structured JSON report (WriteReport).
	ArtifactReport Artifact = "report"
)

// Artifacts lists the exportable formats in a fixed order.
func Artifacts() []Artifact { return []Artifact{ArtifactTrace, ArtifactReport} }

// WriteArtifact writes the named export to w. Exports only read the
// recorded data (sort records and aggregates are local to each call),
// so concurrent WriteArtifact calls on the same finished Sink are safe.
// Unknown names are an error; a nil sink writes the corresponding
// empty export.
func (s *Sink) WriteArtifact(a Artifact, w io.Writer) error {
	switch a {
	case ArtifactTrace:
		return s.WriteChromeTrace(w)
	case ArtifactReport:
		return s.WriteReport(w)
	}
	return fmt.Errorf("obs: unknown artifact %q", a)
}

// RenderArtifact returns the named export as WriteArtifact writes it,
// for callers that keep the bytes. It grows no buffer by doubling and
// copies the bytes at most once: the trace encodes into chunks that
// are joined into a slice of its exact size, and the report is copied
// from the JSON encoder's single write.
func (s *Sink) RenderArtifact(a Artifact) ([]byte, error) {
	switch a {
	case ArtifactTrace:
		return s.renderChromeTrace()
	case ArtifactReport:
		var buf bytes.Buffer
		if err := s.WriteReport(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	return nil, fmt.Errorf("obs: unknown artifact %q", a)
}
