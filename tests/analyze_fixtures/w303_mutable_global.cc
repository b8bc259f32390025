// Fixture: namespace-scope mutable counter with no inline
// justification -> W303.
// wave-domain: neutral

namespace wave::fixture {

int g_events_seen = 0;

}  // namespace wave::fixture
