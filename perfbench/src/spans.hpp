// In-memory span recorder for the traced benchmark run.
//
// A span is one call into a simulator layer: name, start, end, the span
// that was open when it started (its parent) and the trace query it
// serves. Spans nest strictly (a stack), are kept in memory while the run
// executes and are written out once, as CSV, after the run has finished,
// so recording costs two steady_clock reads and one vector append.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    const char* name;       // string literal
    std::int32_t parent;    // -1 for a top-level span
    std::int32_t query;     // trace query ordinal, -1 for none
    std::int64_t start_ns;  // relative to the recorder's origin
    std::int64_t end_ns;
  };

  /// RAII handle: opens a span on construction, closes it on destruction.
  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* name) : rec_(rec) {
      id_ = rec.open(name);
    }
    ~Scope() { rec_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Tags this span, and every span opened inside it from now on, with
    /// a trace query ordinal.
    void set_query(std::int32_t query) { rec_.spans_[id_].query = query; }

   private:
    SpanRecorder& rec_;
    std::int32_t id_ = -1;
  };

  SpanRecorder() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

  Scope scope(const char* name) { return Scope(*this, name); }

  /// Nanoseconds since the recorder was created.
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes `id,parent,name,query,start_ns,end_ns` rows. Every span must
  /// be closed.
  void write_csv(const std::string& path) const {
    if (!stack_.empty()) throw std::logic_error("span still open at write");
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write spans to " + path);
    out << "id,parent,name,query,start_ns,end_ns\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i << ',' << s.parent << ',' << s.name << ',' << s.query << ','
          << s.start_ns << ',' << s.end_ns << '\n';
    }
    if (!out) throw std::runtime_error("short write of spans to " + path);
  }

 private:
  std::int32_t open(const char* name) {
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
    const std::int32_t query = parent < 0 ? -1 : spans_[parent].query;
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{name, parent, query, now_ns(), -1});
    stack_.push_back(id);
    return id;
  }

  void close(std::int32_t id) {
    spans_[id].end_ns = now_ns();
    stack_.pop_back();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

}  // namespace perfbench
