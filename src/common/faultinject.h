// Deterministic fault injection for the serving surface's I/O layer.
//
// Chaos tests need real failure modes — short reads, EINTR storms,
// accept() running out of descriptors, mid-frame disconnects, stalled
// peers — on demand and *reproducibly*, or a flake is indistinguishable
// from a bug. This harness sits at the three syscall-adjacent points in
// net/tcp.cpp (recv, send, accept) and answers one question per call:
// "should this operation fail right now, and how?" from a seeded RNG, so
// the same plan + seed replays the same fault sequence on a
// single-threaded driver.
//
// Usage:
//   faultinject::arm("seed=7,disconnect=0.02,short-read=0.3", &err);
//   ... run traffic; decide() fires at the armed probabilities ...
//   faultinject::disarm();
//
// Plan grammar (comma-separated key=value, probabilities in [0, 1]):
//   seed=N           RNG seed (default 1)
//   short-read=P     recv delivers exactly 1 byte
//   short-write=P    send pushes exactly 1 byte
//   eintr=P          the call is "interrupted": the caller must re-poll
//                    (storms are bounded by the caller's deadline)
//   disconnect=P     the connection drops on the spot (recv and send)
//   accept-fail=P    accept() fails as if out of descriptors (EMFILE)
//   stall=P:MS       the peer stalls: the call sleeps MS ms, then proceeds
//
// Disarmed cost is one relaxed atomic load per I/O call — the hooks are
// in cold syscall wrappers, so the serving hot path is unaffected; the
// benchmark's socket_live workload keeps that honest. Defining
// TIRESIAS_NO_FAULTINJECT (e.g. -DCMAKE_CXX_FLAGS=-DTIRESIAS_NO_FAULTINJECT)
// compiles the whole harness to constant no-ops for deployments that want
// the code gone.
#pragma once

#include <cstdint>
#include <string>

namespace tiresias::faultinject {

/// Where in the I/O layer a decision is being made.
enum class Point : std::uint8_t { kRecv = 0, kSend, kAccept };

/// What decide() told the hook to do. At most one fault fires per call
/// except kStall, which is drawn independently (a stalled peer can also
/// be the one that disconnects).
struct Decision {
  enum class Kind : std::uint8_t {
    kNone = 0,
    kShortIo,     // transfer exactly 1 byte this call
    kEintr,       // pretend the syscall was interrupted; re-poll
    kDisconnect,  // drop the connection now
    kAcceptFail,  // accept fails with EMFILE
  };
  Kind kind = Kind::kNone;
  int stallMs = 0;  // > 0: sleep this long first (independent of kind)
};

#if defined(TIRESIAS_NO_FAULTINJECT)

inline bool arm(const std::string&, std::string* error = nullptr) {
  if (error != nullptr) *error = "fault injection compiled out";
  return false;
}
inline void disarm() {}
inline constexpr bool armed() { return false; }
inline constexpr std::uint64_t injectedCount() { return 0; }
inline constexpr Decision decide(Point) { return {}; }

#else

/// Parse `plan` and start injecting. Replaces any previous plan. False
/// (with `*error` set) on a malformed plan, leaving the previous state
/// untouched.
bool arm(const std::string& plan, std::string* error = nullptr);

/// Stop injecting. The injected-fault counter survives (it is a
/// cumulative run statistic, not plan state).
void disarm();

bool armed();

/// Faults injected since process start (stalls count too).
std::uint64_t injectedCount();

/// One draw at `point`. Always Kind::kNone while disarmed.
Decision decide(Point point);

#endif  // TIRESIAS_NO_FAULTINJECT

}  // namespace tiresias::faultinject
