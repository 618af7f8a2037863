package checkpoint

// Exported for the external byte-identity test (bytes_test.go), which
// imports the control plane and so cannot live in this package.
type Envelope = envelope

var AppendEnvelopeHead = appendEnvelopeHead
