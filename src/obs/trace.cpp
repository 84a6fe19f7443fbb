#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace p2pvod::obs {

namespace {

/// Per-thread event ring. Only the owning thread appends; stop() copies the
/// contents out. A per-buffer mutex serializes the two — uncontended in the
/// hot path (the owner re-locks its own free mutex), and it makes a stop()
/// racing a straggler worker well-defined instead of a data race.
struct ThreadBuffer {
  std::mutex mutex;
  std::vector<TraceEvent> events;  // ring storage, capacity fixed per session
  std::size_t capacity = 0;        // session ring capacity (reserve() may
                                   // over-allocate and never shrinks)
  std::size_t next = 0;            // ring write cursor
  bool wrapped = false;
  std::uint64_t epoch = 0;  // session this buffer was last reset for
  std::uint32_t tid = 0;
};

struct TraceState {
  std::atomic<bool> active{false};
  std::atomic<std::uint64_t> epoch{0};  // bumped by each start()
  std::mutex mutex;  // guards everything below
  std::vector<ThreadBuffer*> buffers;  // every buffer ever registered
  std::size_t ring_capacity = 1 << 14;
  std::uint32_t next_tid = 0;
};

TraceState& state() {
  // Leaked: pool worker threads may touch their buffers during shutdown.
  static auto* instance = new TraceState();
  return *instance;
}

thread_local ThreadBuffer* t_buffer = nullptr;

ThreadBuffer& local_buffer() {
  if (t_buffer == nullptr) {
    // Leaked per thread: a worker's buffer must survive past the session
    // that created it (the pointer lives in the global registry).
    t_buffer = new ThreadBuffer();
    TraceState& s = state();
    const std::lock_guard lock(s.mutex);
    t_buffer->tid = s.next_tid++;
    s.buffers.push_back(t_buffer);
  }
  return *t_buffer;
}

Counter& dropped_counter() {
  static Counter& counter = MetricsRegistry::global().counter(
      "obs/trace_dropped_events", Stability::kScheduling);
  return counter;
}

void record(TraceEvent event) {
  TraceState& s = state();
  ThreadBuffer& buffer = local_buffer();
  // A buffer first touched (or left over) from another session resets lazily.
  // The session's epoch and ring capacity are read before the buffer lock is
  // taken: stop() holds TraceState::mutex while it takes each buffer lock, so
  // taking them the other way round here could deadlock. Only the owning
  // thread writes buffer.epoch, so it may read it unlocked.
  const bool stale = buffer.epoch != s.epoch.load(std::memory_order_acquire);
  std::uint64_t epoch = 0;
  std::size_t capacity = 0;
  if (stale) {
    const std::lock_guard state_lock(s.mutex);
    epoch = s.epoch.load(std::memory_order_relaxed);
    capacity = s.ring_capacity;
  }
  const std::lock_guard lock(buffer.mutex);
  if (stale) {
    buffer.epoch = epoch;
    buffer.capacity = capacity;
    buffer.events.clear();
    buffer.events.reserve(capacity);
    buffer.next = 0;
    buffer.wrapped = false;
  }
  event.tid = buffer.tid;
  if (buffer.events.size() < buffer.capacity) {
    buffer.events.push_back(std::move(event));
  } else if (!buffer.events.empty()) {
    buffer.events[buffer.next] = std::move(event);
    buffer.next = (buffer.next + 1) % buffer.events.size();
    buffer.wrapped = true;
    dropped_counter().add();
  }
}

}  // namespace

void TraceSession::start(Options options) {
  TraceState& s = state();
  const std::lock_guard lock(s.mutex);
  if (s.active.load(std::memory_order_relaxed)) return;
  s.ring_capacity = std::max<std::size_t>(1, options.ring_capacity);
  s.epoch.fetch_add(1, std::memory_order_release);
  s.active.store(true, std::memory_order_release);
}

bool TraceSession::active() noexcept {
  return state().active.load(std::memory_order_relaxed);
}

std::vector<TraceEvent> TraceSession::stop() {
  TraceState& s = state();
  std::vector<TraceEvent> merged;
  {
    const std::lock_guard lock(s.mutex);
    if (!s.active.load(std::memory_order_relaxed)) return merged;
    s.active.store(false, std::memory_order_release);
    const std::uint64_t epoch = s.epoch.load(std::memory_order_relaxed);
    for (ThreadBuffer* buffer : s.buffers) {
      const std::lock_guard buffer_lock(buffer->mutex);
      if (buffer->epoch != epoch) continue;  // never wrote this session
      if (buffer->wrapped) {
        // Ring order: oldest entries start at the write cursor.
        merged.insert(merged.end(), buffer->events.begin() + buffer->next,
                      buffer->events.end());
        merged.insert(merged.end(), buffer->events.begin(),
                      buffer->events.begin() + buffer->next);
      } else {
        merged.insert(merged.end(), buffer->events.begin(),
                      buffer->events.end());
      }
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
              return a.tid < b.tid;
            });
  return merged;
}

std::uint64_t TraceSession::dropped_events() noexcept {
  return dropped_counter().value();
}

std::string TraceSession::to_chrome_json(
    const std::vector<TraceEvent>& events) {
  using util::json::Value;
  std::uint64_t epoch_ns = 0;
  if (!events.empty()) epoch_ns = events.front().ts_ns;

  Value::Array trace_events;
  trace_events.reserve(events.size());
  for (const TraceEvent& event : events) {
    Value entry{Value::Object{}};
    entry.set("name", event.name);
    // "cat" is the module prefix of the "module/name" convention; Perfetto
    // uses it for filtering.
    const auto slash = event.name.find('/');
    entry.set("cat", slash == std::string::npos
                         ? event.name
                         : event.name.substr(0, slash));
    entry.set("ph", std::string(1, event.phase));
    entry.set("ts", static_cast<double>(event.ts_ns - epoch_ns) / 1000.0);
    if (event.phase == 'X')
      entry.set("dur", static_cast<double>(event.dur_ns) / 1000.0);
    entry.set("pid", 1);
    entry.set("tid", static_cast<std::uint64_t>(event.tid));
    trace_events.push_back(std::move(entry));
  }

  Value doc{Value::Object{}};
  doc.set("traceEvents", std::move(trace_events));
  doc.set("displayTimeUnit", "ms");
  return doc.dump(-1);
}

void TraceSession::stop_to_file(const std::string& path) {
  write_file(path, stop());
}

void TraceSession::write_file(const std::string& path,
                              const std::vector<TraceEvent>& events) {
  const std::filesystem::path file(path);
  if (file.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(file.parent_path(), ec);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("TraceSession: cannot open " + path);
  out << to_chrome_json(events) << '\n';
  if (!out) throw std::runtime_error("TraceSession: write failed: " + path);
}

namespace detail {

void record_complete(const char* name, std::uint64_t start_ns,
                     std::uint64_t dur_ns) {
  TraceEvent event;
  event.name = name;
  event.phase = 'X';
  event.ts_ns = start_ns;
  event.dur_ns = dur_ns;
  record(std::move(event));
}

void record_complete(std::string name, std::uint64_t start_ns,
                     std::uint64_t dur_ns) {
  TraceEvent event;
  event.name = std::move(name);
  event.phase = 'X';
  event.ts_ns = start_ns;
  event.dur_ns = dur_ns;
  record(std::move(event));
}

void record_instant(const char* name) {
  TraceEvent event;
  event.name = name;
  event.phase = 'i';
  event.ts_ns = monotonic_ns();
  record(std::move(event));
}

}  // namespace detail

}  // namespace p2pvod::obs
