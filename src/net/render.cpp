#include "net/render.h"

#include <sstream>

#include "support/str.h"
#include "sym/report.h"

namespace grover::net {

std::string renderResultLine(const service::Artifact& a) {
  if (!a.ok) {
    return "failed: " + a.diagnostics.substr(0, a.diagnostics.find('\n'));
  }
  std::size_t transformed = 0;
  for (const auto& b : a.report.buffers) {
    if (b.transformed) ++transformed;
  }
  std::ostringstream os;
  os << "ok, " << transformed << "/" << a.report.buffers.size()
     << " buffers transformed";
  if (a.hasEstimate) {
    os << ", np " << fixed(a.normalized, 3) << " ("
       << perf::toString(a.outcome) << ")";
  }
  if (a.proofVetoed) {
    os << ", transform vetoed: " << a.proofNote;
  } else if (a.proofTransformed != sym::ProofStatus::Unchecked) {
    os << ", proof " << sym::toString(a.proofTransformed);
    if (a.proofOriginal == sym::ProofStatus::Refuted) {
      os << " (original already racy)";
    }
  }
  return os.str();
}

std::string renderAutoResultLine(const service::AutoResult& r) {
  if (r.artifact == nullptr) return "not served";
  if (!r.artifact->ok || !r.eligible) return renderResultLine(*r.artifact);
  std::ostringstream os;
  os << "ok, serving " << policy::toString(r.decision.variant) << " ("
     << (r.policyHit ? "policy hit" : "cold decision") << ", predicted np "
     << fixed(r.decision.predictedNp, 3) << ", "
     << perf::toString(r.decision.predictedOutcome);
  if (r.decision.proof != sym::ProofStatus::Unchecked) {
    os << ", proof " << sym::toString(r.decision.proof);
    if (r.decision.source == "proof") os << " veto";
  }
  os << ")";
  if (r.measured) {
    os << ", measured np " << fixed(r.measurement.measuredNp, 3) << " ("
       << (r.measurement.usedNative ? "native" : "interpreter") << ")";
  }
  return os.str();
}

std::string renderStats(const service::ServiceStats& s,
                        const StatsRenderOptions& options) {
  std::ostringstream os;
  os << "cache: " << s.memoryHits << " memory hits (" << s.negativeHits
     << " negative), " << s.coalesced << " coalesced, " << s.misses
     << " misses, " << s.diskHits << " disk hits, " << s.compiles
     << " compiles, " << s.evictions << " evictions, "
     << s.diskLoadFailures << " disk load failures, " << s.cancelled
     << " cancelled, " << s.kernelReuses << " kernel reuses\n";
  os << "cache bytes: " << s.bytesInUse << " in " << s.entries
     << " entries, " << s.kernelEntryBytes << " in " << s.kernelEntries
     << " kernel entries\n";
  // Per-stage wall-time breakdown of everything the service did: parse,
  // transform, validate, estimate-or-execute, cache.
  os << "stages: frontend " << fixed(s.frontendMs, 1) << " ms, grover "
     << fixed(s.groverMs, 1) << " ms, validate " << fixed(s.validateMs, 1)
     << " ms, print " << fixed(s.printMs, 1) << " ms, estimate "
     << fixed(s.estimateMs, 1) << " ms (trace "
     << fixed(s.estimateTraceMs, 1) << " ms, digest "
     << fixed(s.estimateDigestMs, 1) << " ms), execute "
     << fixed(s.executeMs, 1) << " ms, cache " << fixed(s.cacheMs, 1)
     << " ms\n";
  if (options.policy) {
    os << "policy: " << s.policyHits << " hits, " << s.policyMisses
       << " misses, " << s.policyStores << " decisions stored, "
       << s.policyFlips << " flips, " << s.policyMismatches
       << " mismatches\n";
    if (options.measure) {
      os << "measure: " << s.measurements << " measured ("
         << s.nativeMeasurements << " native), " << s.policyRefreshes
         << " decision refreshes, " << s.measurementsDropped
         << " dropped, " << s.staleRemeasures << " stale re-measures\n";
    }
  }
  if (options.prove) {
    os << "prove: " << s.proofsRun << " proofs (" << s.proofsProved
       << " proved, " << s.proofsRefuted << " refuted, " << s.proofsUnknown
       << " unknown), " << s.proofVetoes << " vetoes, "
       << fixed(s.proveMs, 1) << " ms\n";
  }
  return os.str();
}

std::string renderServerLine(const StatsCounters& c,
                             std::uint64_t connectionsOpen) {
  return cat("server: ", c.connectionsAccepted, " connections (",
             connectionsOpen, " open, ", c.acceptsShed, " shed), ",
             c.framesReceived, " frames, ", c.requestsAdmitted,
             " admitted, ", c.responsesSent, " responses, ",
             c.rejectedOverload, " overload-rejected (",
             c.rejectedClientCredit, " credit), ", c.protocolErrors,
             " protocol errors, ", c.disconnectedMidRequest,
             " disconnected mid-request, ", c.idleTimeouts,
             " idle timeouts, ", c.readBudgetExhausted,
             " read-budget yields\n");
}

std::string renderShardLine(std::size_t index, const StatsCounters& c) {
  return cat("shard ", index, ": ", c.connectionsAccepted,
             " connections, ", c.framesReceived, " frames, ",
             c.requestsAdmitted, " admitted, ", c.responsesSent,
             " responses, ", c.rejectedOverload, " overload-rejected, ",
             c.idleTimeouts, " idle timeouts\n");
}

std::string renderStatsFrame(const StatsFrame& f) {
  std::string out = cat(
      "daemon: up ", fixed(static_cast<double>(f.uptimeMs) / 1000.0, 1),
      " s, ", f.shards.size(), " shard(s), ", f.admittedNow,
      " admitted now, ", f.connectionsOpen, " connection(s) open\n");
  out += renderServerLine(f.totals, f.connectionsOpen);
  if (f.shards.size() > 1) {
    for (std::size_t i = 0; i < f.shards.size(); ++i) {
      out += renderShardLine(i, f.shards[i]);
    }
  }
  out += cat("service: ", f.cancelled, " cancelled, ", f.measurements,
             " measurements (", f.measurementsDropped, " dropped, backlog ",
             f.measureQueueBacklog, "), ", f.proofsRun, " proofs (",
             f.proofsRefuted, " refuted)\n");
  return out;
}

namespace {

void appendCountersJson(std::string& out, const StatsCounters& c) {
  out += cat("{\"connections_accepted\":", c.connectionsAccepted,
             ",\"connections_closed\":", c.connectionsClosed,
             ",\"frames_received\":", c.framesReceived,
             ",\"requests_admitted\":", c.requestsAdmitted,
             ",\"responses_sent\":", c.responsesSent,
             ",\"rejected_overload\":", c.rejectedOverload,
             ",\"rejected_client_credit\":", c.rejectedClientCredit,
             ",\"rejected_shutdown\":", c.rejectedShutdown,
             ",\"protocol_errors\":", c.protocolErrors,
             ",\"disconnected_mid_request\":", c.disconnectedMidRequest,
             ",\"idle_timeouts\":", c.idleTimeouts,
             ",\"read_budget_exhausted\":", c.readBudgetExhausted,
             ",\"accepts_shed\":", c.acceptsShed, "}");
}

}  // namespace

std::string renderStatsFrameJson(const StatsFrame& f) {
  std::string out = cat("{\"version\":", f.version,
                        ",\"uptime_ms\":", f.uptimeMs,
                        ",\"shards\":", f.shards.size(),
                        ",\"admitted_now\":", f.admittedNow,
                        ",\"connections_open\":", f.connectionsOpen,
                        ",\"cancelled\":", f.cancelled,
                        ",\"measurements\":", f.measurements,
                        ",\"measurements_dropped\":", f.measurementsDropped,
                        ",\"measure_queue_backlog\":", f.measureQueueBacklog,
                        ",\"proofs_run\":", f.proofsRun,
                        ",\"proofs_refuted\":", f.proofsRefuted,
                        ",\"totals\":");
  appendCountersJson(out, f.totals);
  out += ",\"per_shard\":[";
  for (std::size_t i = 0; i < f.shards.size(); ++i) {
    if (i > 0) out += ',';
    appendCountersJson(out, f.shards[i]);
  }
  out += "]}\n";
  return out;
}

std::string renderHealthLine(const StatsFrame& f) {
  return cat("health: up ",
             fixed(static_cast<double>(f.uptimeMs) / 1000.0, 1), " s, ",
             f.shards.size(), " shard(s), ", f.admittedNow, " admitted, ",
             f.connectionsOpen, " open (", f.totals.connectionsAccepted,
             " accepted, ", f.totals.acceptsShed, " shed), ",
             f.totals.responsesSent, " responses, ",
             f.totals.rejectedOverload, " overload-rejected, ",
             f.cancelled, " cancelled, ", f.measurements,
             " measured (backlog ", f.measureQueueBacklog, "), ",
             f.proofsRun, " proofs (", f.proofsRefuted, " refuted)");
}

}  // namespace grover::net
