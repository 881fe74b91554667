#include "eco/exactfix.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "bdd/bdd.hpp"
#include "cnf/encode.hpp"
#include "eco/matching.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace syseco {

namespace {

/// Exact BDD of a cone over the given PI variable mapping; pins listed in
/// `freePin` evaluate to `yRef` instead of their driving net.
Bdd::Ref buildConeBdd(Bdd& mgr, const Netlist& nl, NetId root,
                      const std::unordered_map<std::uint32_t,
                                               std::uint32_t>& piVar,
                      const Sink* freePin, Bdd::Ref yRef) {
  std::unordered_map<NetId, Bdd::Ref> netBdd;
  for (GateId g : nl.coneGates({root})) {
    const auto& gate = nl.gate(g);
    std::vector<Bdd::Ref> in;
    in.reserve(gate.fanins.size());
    for (std::size_t port = 0; port < gate.fanins.size(); ++port) {
      const NetId f = gate.fanins[port];
      Bdd::Ref v;
      if (auto it = netBdd.find(f); it != netBdd.end()) {
        v = it->second;
      } else {
        const auto& net = nl.net(f);
        SYSECO_CHECK(net.srcKind == Netlist::SourceKind::Input);
        v = mgr.var(piVar.at(net.srcIdx));
        netBdd.emplace(f, v);
      }
      if (freePin && freePin->gate == g &&
          freePin->port == static_cast<std::uint32_t>(port)) {
        v = yRef;
      }
      in.push_back(v);
    }
    Bdd::Ref r = Bdd::kFalse;
    switch (gate.type) {
      case GateType::Const0: r = Bdd::kFalse; break;
      case GateType::Const1: r = Bdd::kTrue; break;
      case GateType::Buf: r = in[0]; break;
      case GateType::Not: r = mgr.bNot(in[0]); break;
      case GateType::And: r = mgr.andMany(in); break;
      case GateType::Nand:
        r = mgr.andMany(in);
        r = mgr.bNot(r);
        break;
      case GateType::Or: r = mgr.orMany(in); break;
      case GateType::Nor:
        r = mgr.orMany(in);
        r = mgr.bNot(r);
        break;
      case GateType::Xor:
      case GateType::Xnor: {
        r = in[0];
        for (std::size_t k = 1; k < in.size(); ++k) r = mgr.bXor(r, in[k]);
        if (gate.type == GateType::Xnor) r = mgr.bNot(r);
        break;
      }
      case GateType::Mux: r = mgr.ite(in[0], in[2], in[1]); break;
    }
    netBdd[gate.out] = r;
  }
  if (auto it = netBdd.find(root); it != netBdd.end()) return it->second;
  const auto& net = nl.net(root);
  if (net.srcKind == Netlist::SourceKind::Input)
    return mgr.var(piVar.at(net.srcIdx));
  SYSECO_CHECK(false && "undriven cone root");
  return Bdd::kFalse;
}

}  // namespace

EcoResult runExactFix(const Netlist& impl, const Netlist& spec,
                      const ExactFixOptions& options,
                      ExactFixDiagnostics* diagnostics) {
  Timer timer;
  Rng rng(options.seed);
  ExactFixDiagnostics local;
  ExactFixDiagnostics& diag = diagnostics ? *diagnostics : local;

  EcoResult result;
  result.rectified = impl;
  PatchTracker tracker(result.rectified);
  Netlist& w = result.rectified;

  const std::vector<std::uint32_t> failing =
      findFailingOutputs(impl, spec, rng);
  result.failingOutputsBefore = failing.size();

  for (std::uint32_t o : failing) {
    const std::uint32_t op = spec.findOutput(impl.outputName(o));
    SYSECO_CHECK(op != kNullId);

    // Joint PI support of the pair, by implementation input index.
    std::vector<std::uint32_t> support = w.support(w.outputNet(o));
    for (std::uint32_t pi : spec.support(spec.outputNet(op))) {
      const std::uint32_t iw = w.findInput(spec.inputName(pi));
      if (iw != kNullId) support.push_back(iw);
    }
    std::sort(support.begin(), support.end());
    support.erase(std::unique(support.begin(), support.end()),
                  support.end());

    const std::vector<GateId> cone = w.coneGates({w.outputNet(o)});
    bool fixed = false;
    if (support.size() <= options.maxSupport &&
        cone.size() <= options.maxConeGates) {
      try {
        // Variable layout: one BDD var per support PI, plus y last. The
        // manager keeps identity order: the ISOP cover, and so the patch
        // shape, depends on the variable order.
        BddConfig bddCfg;
        bddCfg.nodeLimit = options.bddNodeLimit;
        Bdd mgr(static_cast<std::uint32_t>(support.size()) + 1, bddCfg);
        std::unordered_map<std::uint32_t, std::uint32_t> piVar;
        for (std::uint32_t i = 0; i < support.size(); ++i)
          piVar.emplace(support[i], i);
        const std::uint32_t yVar =
            static_cast<std::uint32_t>(support.size());

        // Spec inputs resolve through the same labels.
        std::unordered_map<std::uint32_t, std::uint32_t> specPiVar;
        for (std::uint32_t pi = 0; pi < spec.numInputs(); ++pi) {
          const std::uint32_t iw = w.findInput(spec.inputName(pi));
          if (iw != kNullId && piVar.count(iw))
            specPiVar.emplace(pi, piVar.at(iw));
        }
        const Bdd::Ref fPrime = buildConeBdd(mgr, spec, spec.outputNet(op),
                                             specPiVar, nullptr, Bdd::kFalse);

        // Candidate pins: every sink pin in the cone (bounded), plus the
        // output itself.
        std::vector<Sink> pins{Sink{kNullId, o}};
        for (GateId g : cone) {
          for (std::uint32_t port = 0;
               port < w.gate(g).fanins.size(); ++port)
            pins.push_back(Sink{g, port});
        }
        if (pins.size() > options.maxCandidatePins)
          pins.resize(options.maxCandidatePins);

        for (const Sink& pin : pins) {
          ++diag.pinsTried;
          const Bdd::Ref y = mgr.var(yVar);
          const Bdd::Ref h =
              pin.isOutput()
                  ? y
                  : buildConeBdd(mgr, w, w.outputNet(o), piVar, &pin, y);
          const Bdd::Ref A = mgr.bXnor(mgr.cofactor(h, yVar, true), fPrime);
          const Bdd::Ref B = mgr.bXnor(mgr.cofactor(h, yVar, false), fPrime);
          if (mgr.bOr(A, B) != Bdd::kTrue) continue;  // pin infeasible

          // Interval [L, U] = [!B, A]; synthesize an irredundant cover.
          const std::vector<BddCube> cover = mgr.isop(mgr.bNot(B), A);
          diag.coverCubes += cover.size();
          // Instantiate the two-level patch over the support inputs.
          std::vector<NetId> terms;
          std::unordered_map<std::uint32_t, NetId> invOf;
          for (const BddCube& cube : cover) {
            std::vector<NetId> lits;
            for (std::uint32_t v = 0; v < support.size(); ++v) {
              if (cube.lits[v] < 0) continue;
              const NetId in = w.inputNet(support[v]);
              if (cube.lits[v] == 1) {
                lits.push_back(in);
              } else {
                auto it = invOf.find(v);
                if (it == invOf.end()) {
                  it = invOf.emplace(v, w.addGate(GateType::Not, {in}))
                           .first;
                }
                lits.push_back(it->second);
              }
            }
            if (lits.empty()) {
              terms.push_back(w.addGate(GateType::Const1, {}));
            } else if (lits.size() == 1) {
              terms.push_back(lits[0]);
            } else {
              terms.push_back(w.addGate(GateType::And, lits));
            }
          }
          NetId r;
          if (terms.empty()) {
            r = w.addGate(GateType::Const0, {});
          } else if (terms.size() == 1) {
            r = terms[0];
          } else {
            r = w.addGate(GateType::Or, terms);
          }
          // The single-point condition is per-output; the pin may feed
          // other outputs through shared logic. Validate every reachable
          // output and roll back on collateral damage.
          const std::size_t mark = tracker.mark();
          tracker.rewire(pin, r);
          bool collateral = false;
          if (!pin.isOutput()) {
            std::unordered_set<GateId> seen;
            std::vector<NetId> stack{w.gate(pin.gate).out};
            std::vector<std::uint32_t> reachedOutputs;
            while (!stack.empty()) {
              const NetId n = stack.back();
              stack.pop_back();
              for (const Sink& s : w.net(n).sinks) {
                if (s.isOutput()) {
                  reachedOutputs.push_back(s.port);
                } else if (seen.insert(s.gate).second) {
                  stack.push_back(w.gate(s.gate).out);
                }
              }
            }
            PairEncoding pe(w, spec);
            for (std::uint32_t ro : reachedOutputs) {
              const std::uint32_t rop = spec.findOutput(w.outputName(ro));
              if (rop == kNullId) continue;
              if (pe.solveDiffSwept(ro, rop, 200000, rng) !=
                  Solver::Result::Unsat) {
                collateral = true;
                break;
              }
            }
          }
          if (collateral) {
            tracker.rollback(mark);
            continue;  // try the next pin
          }
          ++diag.outputsViaExactFix;
          fixed = true;
          break;
        }
      } catch (const BddLimitExceeded&) {
        // fall through to the clone fallback
      }
    }
    if (!fixed) {
      MatcherOptions mopts;
      Rng matchRng = rng.split();
      MatchedSpecCloner cloner(tracker, spec, mopts, matchRng);
      tracker.rewire(Sink{kNullId, o}, cloner.clone(spec.outputNet(op)));
      ++diag.outputsViaFallback;
    }
  }

  result.stats = tracker.finalize();
  result.success = verifyAllOutputs(result.rectified, spec);
  result.seconds = timer.seconds();
  return result;
}

}  // namespace syseco
