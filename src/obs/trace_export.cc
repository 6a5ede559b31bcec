#include "obs/trace_export.h"

#include <cinttypes>
#include <cstdio>

#include "mc/memory_order.h"
#include "mc/trace.h"
#include "support/record.h"

namespace cds::obs {
namespace {

// pid 0 = the modeled execution (one tid per modeled thread);
// pid 1 = the exploration phases (wall clock).
constexpr int kModelPid = 0;
constexpr int kExplorerPid = 1;

void append_meta(std::string* out, int pid, int tid, const char* what,
                 const std::string& name) {
  char buf[96];
  std::snprintf(buf, sizeof buf,
                "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"%s\","
                "\"args\":{\"name\":",
                pid, tid, what);
  *out += buf;
  *out += '"' + support::json_escape(name) + '"';
  *out += "}},\n";
}

std::string event_label(
    const mc::TraceEvent& ev,
    const std::function<std::string(std::uint32_t)>& loc_name) {
  std::string label = mc::to_string(ev.kind);
  if (ev.loc != mc::TraceEvent::kNoLoc) {
    label += ' ';
    if (loc_name) {
      label += loc_name(ev.loc);
    } else {
      label += "loc" + std::to_string(ev.loc);
    }
    switch (ev.kind) {
      case mc::TraceEvent::Kind::kLoad:
      case mc::TraceEvent::Kind::kStore:
      case mc::TraceEvent::Kind::kRmw:
      case mc::TraceEvent::Kind::kCasFail:
        label += '=' + std::to_string(ev.value);
        break;
      default:
        break;
    }
  }
  return label;
}

}  // namespace

std::string render_chrome_trace(
    const std::vector<mc::TraceEvent>& events,
    const std::function<std::string(std::uint32_t)>& loc_name,
    const std::vector<PhaseSpan>& phases) {
  std::string out = "{\"traceEvents\":[\n";

  append_meta(&out, kModelPid, 0, "process_name", "modeled execution");
  append_meta(&out, kExplorerPid, 0, "process_name", "exploration phases");
  int max_tid = -1;
  for (const mc::TraceEvent& ev : events) {
    if (ev.thread > max_tid) max_tid = ev.thread;
  }
  for (int t = 0; t <= max_tid; ++t) {
    append_meta(&out, kModelPid, t, "thread_name",
                t == 0 ? "T0 (root)" : "T" + std::to_string(t));
  }

  // Modeled events: one complete event per visible operation, 1us wide at
  // its global order index, on its thread's row.
  char buf[160];
  for (std::size_t i = 0; i < events.size(); ++i) {
    const mc::TraceEvent& ev = events[i];
    out += "{\"ph\":\"X\",\"pid\":0,\"tid\":";
    out += std::to_string(ev.thread);
    std::snprintf(buf, sizeof buf, ",\"ts\":%zu,\"dur\":1,\"cat\":\"model\",",
                  i);
    out += buf;
    out += "\"name\":";
    out += '"' + support::json_escape(event_label(ev, loc_name)) + '"';
    std::snprintf(buf, sizeof buf,
                  ",\"args\":{\"order\":\"%s\",\"value\":%" PRIu64 "}},\n",
                  mc::to_string(ev.order), ev.value);
    out += buf;
  }

  // Exploration-phase spans in wall microseconds.
  for (const PhaseSpan& p : phases) {
    std::snprintf(buf, sizeof buf,
                  "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":%.0f,"
                  "\"dur\":%.0f,\"cat\":\"explore\",\"name\":",
                  p.start_seconds * 1e6, p.duration_seconds * 1e6);
    out += buf;
    out += '"' + support::json_escape(p.name) + '"';
    out += "},\n";
  }

  // Trailing comma cleanup: drop the final ",\n" if any event was emitted.
  if (out.size() >= 2 && out[out.size() - 2] == ',') {
    out.erase(out.size() - 2, 1);
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

bool write_chrome_trace_file(
    const std::string& path, const std::vector<mc::TraceEvent>& events,
    const std::function<std::string(std::uint32_t)>& loc_name,
    const std::vector<PhaseSpan>& phases, std::string* err) {
  return mc::write_text_file_atomic(
      path, render_chrome_trace(events, loc_name, phases), err);
}

}  // namespace cds::obs
