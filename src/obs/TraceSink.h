// Forwarding header: valbench/runner.cpp includes it for obs::jsonEscape,
// which now lives in obs/JsonValue.h; the runner's sources change only
// together with the benchmark's, so the header stays until then.
#include "obs/JsonValue.h"
