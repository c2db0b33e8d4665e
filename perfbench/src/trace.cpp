#include "trace.hpp"

#include <cstdio>
#include <fstream>

namespace perfbench {

std::map<std::string, std::vector<double>> Tracer::values() const {
  const std::scoped_lock lock(mutex_);
  std::map<std::string, std::vector<double>> out;
  for (const Record& record : records_) {
    for (const auto& [name, value] : record.values) {
      out[name].push_back(value);
    }
  }
  return out;
}

std::size_t Tracer::size() const {
  const std::scoped_lock lock(mutex_);
  return records_.size();
}

std::uint64_t Tracer::next_id() {
  const std::scoped_lock lock(mutex_);
  return ++last_id_;
}

void Tracer::commit(Record record) {
  const std::scoped_lock lock(mutex_);
  records_.push_back(std::move(record));
}

bool Tracer::write_chrome_json(const std::string& path) const {
  const std::scoped_lock lock(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  char buffer[64];
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (i > 0) out << ",";
    out << "\n{\"name\":\"" << r.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << r.op << ",\"ts\":" << r.start_s * 1e6
        << ",\"dur\":" << (r.end_s - r.start_s) * 1e6
        << ",\"args\":{\"id\":" << r.id << ",\"parent\":" << r.parent;
    for (const auto& [name, value] : r.values) {
      std::snprintf(buffer, sizeof buffer, "%.9g", value);
      out << ",\"" << name << "\":" << buffer;
    }
    out << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

Span::Span(Tracer* tracer, std::string name, std::uint64_t op,
           std::uint64_t parent)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  record_.id = tracer_->next_id();
  record_.parent = parent;
  record_.op = op;
  record_.name = std::move(name);
  record_.start_s = tracer_->now_s();
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  record_.end_s = tracer_->now_s();
  tracer_->commit(std::move(record_));
}

void Span::set(std::string key, double value) {
  if (tracer_ == nullptr) return;
  record_.values.emplace_back(std::move(key), value);
}

}  // namespace perfbench
