//===- obs/TraceExport.cpp - Chrome trace-event / Perfetto export ---------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "obs/TraceExport.h"

#include "obs/JsonValue.h"
#include "support/AtomicFile.h"

#include <cstdio>

using namespace pseq::obs;

namespace {

/// Microsecond timestamp with the nanosecond fraction kept (Perfetto
/// accepts fractional ts).
std::string tsUs(uint64_t Ns) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%llu.%03u",
                static_cast<unsigned long long>(Ns / 1000),
                static_cast<unsigned>(Ns % 1000));
  return Buf;
}

/// Opens one event object; the caller appends any members and the '}'.
void beginEvent(std::string &Out, bool &First, const char *Ph,
                const char *Name, uint64_t Ns, unsigned Tid) {
  if (!First)
    Out += ',';
  First = false;
  Out += "\n{\"name\":\"";
  Out += jsonEscape(Name);
  Out += "\",\"ph\":\"";
  Out += Ph;
  Out += "\",\"ts\":";
  Out += tsUs(Ns);
  Out += ",\"pid\":1,\"tid\":";
  Out += std::to_string(Tid);
}

void appendEvent(std::string &Out, bool &First, const char *Ph,
                 const char *Name, uint64_t Ns, unsigned Tid) {
  beginEvent(Out, First, Ph, Name, Ns, Tid);
  Out += '}';
}

/// Appends `"key":value` as the next member of an args object.
void appendArg(std::string &Out, bool &FirstArg, std::string_view Key,
               const ArgValue &Val) {
  if (!FirstArg)
    Out += ',';
  FirstArg = false;
  Out += '"';
  Out += jsonEscape(Key);
  Out += "\":";
  Val.appendJson(Out);
}

void appendInstant(std::string &Out, bool &First, unsigned Tid,
                   const InstantRecord &I) {
  beginEvent(Out, First, "i", I.Name, I.Ns, Tid);
  Out += ",\"s\":\"t\",\"args\":{";
  bool FirstArg = true;
  for (const InstantArg &A : I.Args)
    appendArg(Out, FirstArg, A.Key, A.Val);
  Out += "}}";
}

/// The closing run.final instant, taken straight from the registry.
void appendRunFinal(std::string &Out, bool &First, const Telemetry &T,
                    std::string_view Reason) {
  beginEvent(Out, First, "i", "run.final", T.Spans ? T.Spans->nowNs() : 0, 0);
  Out += ",\"s\":\"g\",\"args\":{";
  bool FirstArg = true;
  appendArg(Out, FirstArg, "reason", Reason);
  for (const auto &[Name, Value] : T.Counters.counters())
    appendArg(Out, FirstArg, Name, Value);
  for (const auto &[Name, Value] : T.Counters.gauges())
    appendArg(Out, FirstArg, Name, Value);
  if (T.Spans) {
    appendArg(Out, FirstArg, "spans.recorded", T.Spans->totalSpans());
    appendArg(Out, FirstArg, "spans.dropped", T.Spans->droppedSpans());
  }
  Out += "}}";
}

void appendMeta(std::string &Out, bool &First, const char *Kind,
                unsigned Tid, const std::string &Label) {
  if (!First)
    Out += ',';
  First = false;
  Out += "\n{\"name\":\"";
  Out += Kind;
  Out += "\",\"ph\":\"M\",\"pid\":1,\"tid\":";
  Out += std::to_string(Tid);
  Out += ",\"args\":{\"name\":\"";
  Out += jsonEscape(Label);
  Out += "\"}}";
}

/// A reconstructed span-tree node: the record plus child indices.
struct Node {
  const SpanRecord *Rec;
  std::vector<size_t> Kids;
};

void emitNode(std::string &Out, bool &First, unsigned Tid,
              const std::vector<Node> &Nodes, size_t I) {
  appendEvent(Out, First, "B", Nodes[I].Rec->Name, Nodes[I].Rec->BeginNs,
              Tid);
  for (size_t K : Nodes[I].Kids)
    emitNode(Out, First, Tid, Nodes, K);
  appendEvent(Out, First, "E", Nodes[I].Rec->Name, Nodes[I].Rec->EndNs, Tid);
}

} // namespace

std::string pseq::obs::renderChromeTrace(const Telemetry &T,
                                         const std::string &ProcessName,
                                         std::string_view Reason) {
  std::string Out = "{\"traceEvents\":[";
  bool First = true;
  appendMeta(Out, First, "process_name", 0, ProcessName);

  for (unsigned L = 0, N = T.Spans ? T.Spans->lanes() : 0; L != N; ++L) {
    const std::vector<SpanRecord> &Recs = T.Spans->lane(L);
    const std::vector<InstantRecord> &Instants = T.Spans->instants(L);
    if (Recs.empty() && Instants.empty())
      continue;
    appendMeta(Out, First, "thread_name", L,
               L == 0 ? "orchestrator" : "lane-" + std::to_string(L));

    // A lane records spans at *end* time, so the record stream is a
    // postorder traversal of the lane's span forest; together with the
    // recorded nesting depths this rebuilds the forest exactly (no
    // timestamp-tie heuristics): when a span at depth d completes, every
    // still-unattached subtree at depth d+1 is one of its children.
    std::vector<Node> Nodes;
    Nodes.reserve(Recs.size());
    std::vector<std::vector<size_t>> Pending; // unattached roots per depth
    for (const SpanRecord &S : Recs) {
      Node N2;
      N2.Rec = &S;
      if (S.Depth + 1 < Pending.size()) {
        N2.Kids = std::move(Pending[S.Depth + 1]);
        Pending[S.Depth + 1].clear();
      }
      if (Pending.size() <= S.Depth)
        Pending.resize(S.Depth + 1);
      Nodes.push_back(std::move(N2));
      Pending[S.Depth].push_back(Nodes.size() - 1);
    }

    // Emit preorder: B, children, E — balanced per tid by construction.
    // Leftovers at depth > 0 (spans whose parent never closed) become
    // roots so nothing recorded is lost.
    for (const std::vector<size_t> &Roots : Pending)
      for (size_t I : Roots)
        emitNode(Out, First, L, Nodes, I);
    // Instants follow their lane's spans; viewers order events by ts.
    for (const InstantRecord &I : Instants)
      appendInstant(Out, First, L, I);
  }

  appendRunFinal(Out, First, T, Reason);
  Out += "\n],\"displayTimeUnit\":\"ms\"}";
  return Out;
}

bool pseq::obs::writeChromeTrace(const Telemetry &T, const std::string &Path,
                                 const std::string &ProcessName,
                                 std::string_view Reason) {
  // Atomic (temp + rename): Perfetto rejects truncated traces outright, so
  // a kill mid-export must leave the previous file or none.
  return support::writeFileAtomic(
      Path, renderChromeTrace(T, ProcessName, Reason) + "\n");
}
