module Finding = Repro_analyze.Finding

type family = Determinism | Aliasing | Contract

let family_name = function
  | Determinism -> "determinism"
  | Aliasing -> "aliasing"
  | Contract -> "contract"

type t = {
  rule : string;
  family : family;
  severity : Finding.severity;
  source : string;
  line : int;
  symbol : string;
  message : string;
  evidence : string list;
}

type meta = {
  id : string;
  meta_family : family;
  default_severity : Finding.severity;
  kind : Finding.kind;
  doc : string;
}

let catalog =
  [
    {
      id = "wall-clock";
      meta_family = Determinism;
      default_severity = Finding.Error;
      kind = Finding.Determinism_hazard;
      doc =
        "Unix.gettimeofday/time/times/sleep/sleepf or Sys.time outside \
         lib/sim: wall-clock and process-timer reads break (seed, config) \
         reproducibility; use Sim_time via the engine.";
    };
    {
      id = "ambient-random";
      meta_family = Determinism;
      default_severity = Finding.Error;
      kind = Finding.Determinism_hazard;
      doc =
        "The stdlib Random module (global PRNG state, self_init) outside \
         lib/sim; use Sim.Rng, which is seeded per run.";
    };
    {
      id = "hashtbl-order";
      meta_family = Determinism;
      default_severity = Finding.Warning;
      kind = Finding.Determinism_hazard;
      doc =
        "Hashtbl.iter/Hashtbl.fold: iteration order depends on hashing and \
         insertion history, so any result order can leak into delivery \
         decisions. Sort the result or baseline the site after review.";
    };
    {
      id = "poly-compare-mutable";
      meta_family = Determinism;
      default_severity = Finding.Warning;
      kind = Finding.Determinism_hazard;
      doc =
        "Polymorphic =/<>/compare applied to a dereference, a .contents \
         field or a hash table: compares transient mutable state and can \
         raise on functional values.";
    };
    {
      id = "obj-magic";
      meta_family = Determinism;
      default_severity = Finding.Error;
      kind = Finding.Determinism_hazard;
      doc = "Obj.magic defeats the type system anywhere it appears.";
    };
    {
      id = "parse-error";
      meta_family = Determinism;
      default_severity = Finding.Error;
      kind = Finding.Determinism_hazard;
      doc = "The file does not parse; the AST rules could not run.";
    };
    {
      id = "toplevel-ref";
      meta_family = Aliasing;
      default_severity = Finding.Info;
      kind = Finding.Shared_mutable;
      doc =
        "Module-level ref cell: shared mutable state the domain-sharding \
         refactor must partition or make domain-local.";
    };
    {
      id = "mutable-field";
      meta_family = Aliasing;
      default_severity = Finding.Info;
      kind = Finding.Shared_mutable;
      doc =
        "Mutable record field: part of the shared-mutable surface \
         inventory; values of this type cannot cross domains unguarded.";
    };
    {
      id = "toplevel-hashtbl";
      meta_family = Aliasing;
      default_severity = Finding.Info;
      kind = Finding.Shared_mutable;
      doc =
        "Module-level hash table (Hashtbl.create at structure level): \
         shared mutable state, unsynchronized across domains.";
    };
    {
      id = "domain-unready";
      meta_family = Aliasing;
      default_severity = Finding.Error;
      kind = Finding.Shared_mutable;
      doc =
        "Non-Atomic module-level mutable state (ref cell or hash table) in \
         a parallel-engine scope (lib/sim): worker domains share it \
         unsynchronized. Make it Atomic, move it into per-lane state, or \
         baseline the site after review.";
    };
    {
      id = "clock-structural-eq";
      meta_family = Aliasing;
      default_severity = Finding.Warning;
      kind = Finding.Aliasing_hazard;
      doc =
        "Structural =/<> on Vector_clock/Matrix_clock/Sparse_matrix_clock \
         values: sparse rows adopt shared snapshots by physical reference, \
         so == is the intended comparison and = can both lie and \
         deoptimize.";
    };
    {
      id = "chaos-conviction";
      meta_family = Contract;
      default_severity = Finding.Error;
      kind = Finding.Contract_violation;
      doc =
        "A chaos_* mutation hook defined under lib/ is never referenced by \
         test/: the fault it injects has no conviction test.";
    };
    {
      id = "dispatch-coverage";
      meta_family = Contract;
      default_severity = Finding.Error;
      kind = Finding.Contract_violation;
      doc =
        "A Config dispatch variant (causal_impl, stability_impl, \
         stability_clock) does not appear in one of the checker, scaling \
         or bench families.";
    };
    {
      id = "metric-coverage";
      meta_family = Contract;
      default_severity = Finding.Error;
      kind = Finding.Contract_violation;
      doc =
        "A protocol metric registered under lib/ (a ~name literal passed \
         to Registry.counter/gauge/histogram) is never named by test/: \
         nothing pins its spelling or would notice the instrumentation \
         point disappearing.";
    };
  ]

let meta id = List.find_opt (fun m -> m.id = id) catalog

let key t = String.concat "\t" [ t.rule; t.source; t.symbol ]

let compare a b =
  let c = String.compare a.source b.source in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = String.compare a.rule b.rule in
      if c <> 0 then c else String.compare a.symbol b.symbol

let make ~rule ~source ~line ~symbol ~message ~evidence =
  match meta rule with
  | None -> invalid_arg (Printf.sprintf "Rule.make: unknown rule %S" rule)
  | Some m ->
    {
      rule;
      family = m.meta_family;
      severity = m.default_severity;
      source;
      line;
      symbol;
      message;
      evidence;
    }

let to_finding t =
  let kind =
    match meta t.rule with Some m -> m.kind | None -> Finding.Determinism_hazard
  in
  {
    Finding.kind;
    severity = t.severity;
    source = t.source;
    summary =
      (if t.line > 0 then
         Printf.sprintf "%s:%d [%s] %s: %s" t.source t.line t.rule t.symbol
           t.message
       else Printf.sprintf "%s [%s] %s: %s" t.source t.rule t.symbol t.message);
    uids = [];
    pids = [];
    evidence = t.evidence;
  }
