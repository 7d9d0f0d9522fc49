#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "grovercl/harness.h"
#include "ir/context.h"
#include "ir/ir_parser.h"
#include "perf/platform.h"
#include "policy/policy_store.h"
#include "support/diagnostics.h"

namespace perfbench {

using grover::apps::Scale;

std::string Key::line() const {
  return app + " " + platform + (scale == Scale::Test ? " test" : " bench");
}

grover::service::Request Key::request(bool prove) const {
  grover::service::Request r;
  r.appId = app;
  r.platform = platform;
  r.scale = scale;
  r.options.prove = prove;
  return r;
}

std::vector<Key> allKeys(Scale scale) {
  std::vector<Key> keys;
  for (const auto& app : grover::apps::allApplications()) {
    for (const auto& platform : grover::perf::allPlatforms()) {
      keys.push_back({app->id(), platform.name, scale});
    }
  }
  return keys;
}

ExpectedVerdicts loadExpected(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw grover::GroverError("cannot read " + path);
  ExpectedVerdicts out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    std::string app, platform, scale;
    Verdict v;
    if (!(is >> app >> platform >> scale >> v.outcome >> v.variant)) {
      throw grover::GroverError("malformed line in " + path + ": " + line);
    }
    out[app + " " + platform + " " + scale] = v;
  }
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double nearestRank(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  // The smallest sample with at least q of the samples at or below it.
  const auto idx = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::min(samples.size() - 1, idx == 0 ? 0 : idx - 1)];
}

Percentiles percentiles(const std::vector<double>& samples) {
  Percentiles p;
  p.count = samples.size();
  p.p50 = median(samples);
  p.p90 = nearestRank(samples, 0.90);
  p.p99 = nearestRank(samples, 0.99);
  return p;
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr || index_ < 0) return;
  Record& r = tracer_->records_[static_cast<std::size_t>(index_)];
  r.endNs = tracer_->ns(Clock::now());
  tracer_->current_ = r.parent;
}

std::int64_t Tracer::ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

Tracer::Span Tracer::span(std::string name, std::uint64_t request) {
  if (!enabled_) return Span(nullptr, -1);
  Record r;
  r.name = std::move(name);
  r.parent = current_;
  r.request = request != 0 || current_ < 0
                  ? request
                  : records_[static_cast<std::size_t>(current_)].request;
  r.startNs = ns(Clock::now());
  records_.push_back(std::move(r));
  current_ = static_cast<int>(records_.size()) - 1;
  return Span(this, current_);
}

double Tracer::totalMs(const std::string& name) const {
  double total = 0;
  for (const Record& r : records_) {
    if (r.name == name) total += static_cast<double>(r.endNs - r.startNs);
  }
  return total / 1e6;
}

std::size_t Tracer::count(const std::string& name) const {
  return static_cast<std::size_t>(
      std::count_if(records_.begin(), records_.end(),
                    [&](const Record& r) { return r.name == name; }));
}

std::map<std::string, double> Tracer::selfMsByLayer(std::size_t first) const {
  // Children of one span run sequentially on the tracer's thread, so the
  // part of a span its children cover is the sum of their durations.
  std::vector<std::int64_t> childNs(records_.size(), 0);
  for (std::size_t i = first; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.parent >= 0) {
      childNs[static_cast<std::size_t>(r.parent)] += r.endNs - r.startNs;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = first; i < records_.size(); ++i) {
    const Record& r = records_[i];
    const std::string layer = r.name.substr(0, r.name.find('.'));
    out[layer] += static_cast<double>(r.endNs - r.startNs - childNs[i]) / 1e6;
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw grover::GroverError("cannot write " + path);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << r.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        << ",\"ts\":" << static_cast<double>(r.startNs) / 1e3
        << ",\"dur\":" << static_cast<double>(r.endNs - r.startNs) / 1e3
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << r.parent
        << ",\"request\":" << r.request << "}}";
  }
  out << "\n]}\n";
}

void rememberServed(std::vector<ServedVariant>& served,
                    const grover::service::AutoResult& r,
                    const std::string& app) {
  if (r.artifact == nullptr || !r.artifact->ok) return;
  const std::string variant = grover::policy::toString(r.decision.variant);
  for (const ServedVariant& s : served) {
    if (s.app == app && s.variant == variant) return;
  }
  served.push_back({app, variant, r.servedText()});
}

void validateServed(const std::vector<ServedVariant>& served,
                    std::vector<std::string>& errors) {
  for (const ServedVariant& s : served) {
    try {
      const grover::apps::Application& app =
          grover::apps::applicationById(s.app);
      grover::ir::Context ctx;
      auto module = grover::ir::parseModule(ctx, s.irText);
      grover::ir::Function* fn = module->findFunction(app.kernelName());
      if (fn == nullptr) {
        errors.push_back(s.app + " " + s.variant + ": served IR has no kernel");
        continue;
      }
      if (auto err = grover::runAndValidate(app, *fn, Scale::Test, 1)) {
        errors.push_back(s.app + " " + s.variant + ": " + *err);
      }
    } catch (const std::exception& e) {
      errors.push_back(s.app + " " + s.variant + ": " + e.what());
    }
  }
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
