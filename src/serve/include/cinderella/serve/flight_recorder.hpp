// Flight recorder: the last N served requests, always on.
//
// A fixed-size ring of RequestRecords answers "what was the daemon doing
// just now?" after a crash, a latency spike, or a confusing bound — the
// `flightrecorder` op dumps it over the protocol, the daemon dumps it to
// a file on shutdown and from its crash handlers.  Recording one request
// is one stripe mutex + a struct move, cheap enough to leave enabled in
// production serving.
//
// The ring is lock-striped: the global sequence counter assigns each
// record a slot (seq % stripes, then round-robin within the stripe), so
// concurrent connection threads almost never contend on the same mutex.
// A snapshot locks the stripes one at a time and re-sorts by sequence
// number; it is a point-in-time-ish view — records landing mid-snapshot
// may or may not appear, which is fine for a diagnostic dump.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "cinderella/obs/request_telemetry.hpp"

namespace cinderella::obs {
class JsonWriter;
}  // namespace cinderella::obs

namespace cinderella::serve {

/// Everything worth keeping about one served request, sized for a ring
/// that holds hundreds of these.
struct RequestRecord {
  std::uint64_t seq = 0;  ///< Assigned by the recorder; dump order.
  std::string requestId;
  std::string op;
  std::string label;
  std::int64_t startUnixMicros = 0;
  std::int64_t durationMicros = 0;
  bool ok = false;
  bool cacheHit = false;
  bool degradedAdmission = false;
  std::string errorCode;  ///< Empty when ok.
  std::int64_t boundLo = 0;
  std::int64_t boundHi = 0;
  std::int64_t responseBytes = 0;
  /// Per-stage wall µs, indexed by obs::RequestStage.
  std::array<std::int64_t, obs::kRequestStageCount> stageMicros{};

  void toJson(obs::JsonWriter* w) const;
};

class FlightRecorder {
 public:
  /// `capacity` is rounded up to a multiple of the stripe count; 0 is
  /// clamped to one record per stripe.
  explicit FlightRecorder(std::size_t capacity = 256);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Stamps `record.seq` and stores it, overwriting the oldest record in
  /// its stripe once the ring is full.
  void record(RequestRecord record);

  /// Total requests ever recorded (not the ring occupancy).
  [[nodiscard]] std::uint64_t recorded() const {
    return seq_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t capacity() const {
    return perStripe_ * kStripes;
  }

  /// The ring's current contents, oldest first.
  [[nodiscard]] std::vector<RequestRecord> snapshot() const;

  /// {"capacity":N,"recorded":M,"records":[...]} — the dump format used
  /// by the flightrecorder op and the shutdown/crash file dumps.
  [[nodiscard]] std::string json() const;

 private:
  static constexpr std::size_t kStripes = 8;

  struct Stripe {
    mutable std::mutex mutex;
    std::vector<RequestRecord> ring;  ///< Slot valid when seq > 0.
  };

  std::size_t perStripe_;
  std::atomic<std::uint64_t> seq_{0};
  std::array<Stripe, kStripes> stripes_;
};

}  // namespace cinderella::serve
