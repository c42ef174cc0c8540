package journal

// Frame exposes the on-disk record framing to the external test package,
// which forges journals written by older engines.
var Frame = frame
