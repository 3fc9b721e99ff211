(* Tests for the causal sanitizer (lib/analyze): JSON encoding, the
   determinism lint, happened-before construction, each detector on
   hand-built executions, the figure reproductions from lib/experiments and
   lib/apps, and consistency with the checker's oracles across seeds. *)

module Json = Repro_analyze.Json
module Exec = Repro_analyze.Exec
module Recorder = Repro_analyze.Exec.Recorder
module Hb = Repro_analyze.Hb
module Finding = Repro_analyze.Finding
module Analyzer = Repro_analyze.Analyzer
module Lint = Repro_analyze.Lint.Reference
module Config = Repro_catocs.Config
module Delivery_queue = Repro_catocs.Delivery_queue
module Runner = Repro_check.Runner
module Fault_plan = Repro_check.Fault_plan
module Diagrams = Repro_experiments.Diagrams
module False_causality = Repro_experiments.False_causality
module Deceit_store = Repro_apps.Deceit_store
module Trading = Repro_apps.Trading

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

let kinds_of findings =
  List.sort_uniq compare (List.map (fun (f : Finding.t) -> f.Finding.kind) findings)

let count_kind kind findings =
  List.length
    (List.filter (fun (f : Finding.t) -> f.Finding.kind = kind) findings)

let has_kind kind findings = count_kind kind findings > 0

(* --- JSON ----------------------------------------------------------------- *)

let test_json_roundtrip () =
  let value =
    Json.Obj
      [ ("a", Json.Int 3);
        ("b", Json.Arr [ Json.Str "x\"y\n"; Json.Null; Json.Bool true ]);
        ("c", Json.Float 1.5);
        ("empty", Json.Obj []) ]
  in
  (match Json.of_string (Json.to_string value) with
  | Ok parsed ->
    check_bool "roundtrip equal" true (parsed = value);
    check_string "deterministic emission" (Json.to_string value)
      (Json.to_string parsed)
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e);
  (* JSON has no literal for a non-finite float: it must emit [null] *)
  List.iter
    (fun f ->
      let emitted = Json.to_string (Json.Arr [ Json.Float f ]) in
      match Json.of_string emitted with
      | Ok parsed ->
        check_bool
          (Printf.sprintf "%h parses back as null" f)
          true
          (parsed = Json.Arr [ Json.Null ])
      | Error e -> Alcotest.failf "%h emitted %s: %s" f emitted e)
    [ infinity; neg_infinity; nan ]

let test_json_errors () =
  List.iter
    (fun input ->
      match Json.of_string input with
      | Ok _ -> Alcotest.failf "parser accepted %S" input
      | Error _ -> ())
    [ "[1,"; "{\"a\" 1}"; "nul"; "[] []"; "\"unterminated"; "" ]

let test_json_accessors () =
  match Json.of_string {|{"n": 4, "xs": [1.5], "s": "hi"}|} with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok doc ->
    check_bool "int" true (Option.bind (Json.member "n" doc) Json.to_int = Some 4);
    check_bool "float of int" true
      (Option.bind (Json.member "n" doc) Json.to_float = Some 4.0);
    check_bool "str" true
      (Option.bind (Json.member "s" doc) Json.to_str = Some "hi");
    check_bool "missing member" true (Json.member "nope" doc = None)

(* --- determinism lint ------------------------------------------------------ *)

let test_lint_strip () =
  let stripped =
    Lint.strip
      "let a = (* Unix.gettimeofday *) 1\nlet b = \"Random.self_init\"\n"
  in
  check_bool "non-empty result" true (String.length stripped > 0);
  check_bool "comments blanked" false (contains ~sub:"Unix" stripped);
  check_bool "strings blanked" false (contains ~sub:"Random" stripped)

let test_lint_scan () =
  let flagged =
    Lint.scan_string ~source:"fake.ml"
      "let now () = Unix.gettimeofday ()\nlet ok = 1\n"
  in
  check_int "one finding" 1 (List.length flagged);
  let f = List.hd flagged in
  check_bool "hazard kind" true (f.Finding.kind = Finding.Determinism_hazard);
  check_bool "error severity" true (f.Finding.severity = Finding.Error);
  (* the same text inside a comment or a string literal is not flagged *)
  check_int "comment not flagged" 0
    (List.length
       (Lint.scan_string ~source:"fake.ml"
          "(* Unix.gettimeofday would break replay *)\nlet s = \"Sys.time\"\n"));
  (* token boundaries: longer identifiers sharing a rule's spelling as a
     substring are not hits, while a qualified use still is *)
  check_int "Sys.times is not Sys.time" 0
    (List.length
       (Lint.scan_string ~source:"fake.ml" "let t = Sys.times ()\n"));
  check_int "XRandom is not Random" 0
    (List.length
       (Lint.scan_string ~source:"fake.ml" "let r = XRandom.self_init ()\n"));
  check_int "Stdlib.Random still flagged" 1
    (List.length
       (Lint.scan_string ~source:"fake.ml" "let r = Stdlib.Random.int 3\n"))

(* --- happened-before graph -------------------------------------------------- *)

(* p10 multicasts u0; p20 delivers it and multicasts u1; p10 delivers u1. *)
let relay_exec () =
  let r = Recorder.create ~label:"relay" () in
  Recorder.add_process r ~pid:10 ~name:"A";
  Recorder.add_process r ~pid:20 ~name:"B";
  let u0 = Recorder.note_send r ~sender:10 ~at:(Sim_time.ms 1) () in
  Recorder.note_delivery r ~pid:20 ~uid:u0 ~at:(Sim_time.ms 2);
  let u1 = Recorder.note_send r ~sender:20 ~at:(Sim_time.ms 3) () in
  Recorder.note_delivery r ~pid:10 ~uid:u1 ~at:(Sim_time.ms 4);
  (Recorder.exec r, u0, u1)

let test_hb_reachability () =
  let exec, u0, u1 = relay_exec () in
  let hb = Hb.build exec in
  check_bool "acyclic" true (Hb.find_cycle hb = None);
  check_bool "u0 reaches u1 via transport" true
    (Hb.reaches hb ~transport_only:true (Exec.Send_ev u0) (Exec.Send_ev u1));
  check_bool "no reverse reachability" false
    (Hb.reaches hb (Exec.Send_ev u1) (Exec.Send_ev u0));
  check_bool "not reflexive" false
    (Hb.reaches hb (Exec.Send_ev u0) (Exec.Send_ev u0));
  (* u1's context was recorded automatically: B had delivered u0 *)
  (match Exec.find_send exec u1 with
   | Some s -> check_bool "context tracked" true (List.mem u0 s.Exec.context)
   | None -> Alcotest.fail "u1 missing");
  match
    Hb.shortest_path hb ~transport_only:true (Exec.Send_ev u0)
      (Exec.Send_ev u1)
  with
  | Some path -> check_int "send->deliver->send" 2 (List.length path)
  | None -> Alcotest.fail "no witness path"

let test_hb_transitive_reduction () =
  (* One sender, three sends in program order: the FIFO chain u0->u1->u2
     must not also carry the redundant u0->u2 edge. *)
  let r = Recorder.create ~label:"chain" () in
  let u0 = Recorder.note_send r ~sender:1 ~at:(Sim_time.ms 1) () in
  let _u1 = Recorder.note_send r ~sender:1 ~at:(Sim_time.ms 2) () in
  let u2 = Recorder.note_send r ~sender:1 ~at:(Sim_time.ms 3) () in
  let hb = Hb.build (Recorder.exec r) in
  check_bool "u0 reaches u2" true
    (Hb.reaches hb (Exec.Send_ev u0) (Exec.Send_ev u2));
  check_bool "no redundant direct edge" false
    (List.exists
       (fun (edge : Hb.edge) ->
         edge.Hb.src = Exec.Send_ev u0 && edge.Hb.dst = Exec.Send_ev u2)
       (Hb.edges hb))

let test_hb_cycle_witness () =
  let r = Recorder.create ~label:"cyclic" () in
  let u0 = Recorder.note_send r ~sender:1 ~at:(Sim_time.ms 1) () in
  let u1 = Recorder.note_send r ~sender:2 ~at:(Sim_time.ms 2) () in
  Recorder.note_order_requirement r ~before:u0 ~after:u1 ~via:"claim a";
  Recorder.note_order_requirement r ~before:u1 ~after:u0 ~via:"claim b";
  let hb = Hb.build (Recorder.exec r) in
  match Hb.find_cycle hb with
  | None -> Alcotest.fail "cycle not detected"
  | Some nodes -> check_bool "witness non-trivial" true (List.length nodes >= 2)

(* --- detectors on hand-built executions ------------------------------------- *)

let test_detect_duplicate_uid () =
  (* Built through a Sim.Trace log: sending the same label twice records a
     duplicate send of one uid. *)
  let entry time pid kind label = { Trace.time; pid; kind; label } in
  let exec =
    Exec.of_trace ~label:"dup trace"
      [ entry (Sim_time.ms 1) 0 Trace.Send "m";
        entry (Sim_time.ms 2) 1 Trace.Send "m";
        entry (Sim_time.ms 3) 2 Trace.Deliver "m" ]
  in
  let result = Analyzer.analyze exec in
  check_bool "duplicate-uid reported" true
    (has_kind Finding.Duplicate_uid result.Analyzer.findings)

let test_detect_causal_cycle () =
  let r = Recorder.create ~label:"cycle exec" () in
  let u0 = Recorder.note_send r ~sender:1 ~at:(Sim_time.ms 1) () in
  let u1 = Recorder.note_send r ~sender:2 ~at:(Sim_time.ms 2) () in
  Recorder.note_order_requirement r ~before:u0 ~after:u1 ~via:"a";
  Recorder.note_order_requirement r ~before:u1 ~after:u0 ~via:"b";
  let findings = (Analyzer.analyze (Recorder.exec r)).Analyzer.findings in
  check_bool "causal-cycle reported" true
    (has_kind Finding.Causal_cycle findings);
  (* order-sensitive detectors are skipped on cyclic inputs *)
  check_bool "no hidden-channel on cyclic input" false
    (has_kind Finding.Hidden_channel findings)

let test_detect_causal_order_violation () =
  (* u0 -> u1 through the transport (B delivered u0 before sending u1), yet
     process C delivers u1 first: the offline mirror of the causal oracle. *)
  let r = Recorder.create ~ordering:Exec.Causal_order ~label:"inversion" () in
  Recorder.add_process r ~pid:1 ~name:"A";
  Recorder.add_process r ~pid:2 ~name:"B";
  Recorder.add_process r ~pid:3 ~name:"C";
  let u0 = Recorder.note_send r ~sender:1 ~at:(Sim_time.ms 1) () in
  Recorder.note_delivery r ~pid:2 ~uid:u0 ~at:(Sim_time.ms 2);
  let u1 = Recorder.note_send r ~sender:2 ~at:(Sim_time.ms 3) () in
  Recorder.note_delivery r ~pid:3 ~uid:u1 ~at:(Sim_time.ms 4);
  Recorder.note_delivery r ~pid:3 ~uid:u0 ~at:(Sim_time.ms 5);
  let findings = (Analyzer.analyze (Recorder.exec r)).Analyzer.findings in
  check_int "exactly the inversion" 1
    (count_kind Finding.Causal_order findings);
  let f =
    List.find (fun f -> f.Finding.kind = Finding.Causal_order) findings
  in
  check_bool "names both uids" true
    (List.mem u0 f.Finding.uids && List.mem u1 f.Finding.uids);
  check_bool "blames C" true (f.Finding.pids = [ 3 ]);
  check_bool "has witness path" true (f.Finding.evidence <> [])

let test_fifo_mode_not_blamed_for_causal_inversion () =
  (* The same inversion under a declared FIFO discipline is legitimate:
     FIFO never promised cross-process causality. *)
  let r = Recorder.create ~ordering:Exec.Fifo_order ~label:"fifo run" () in
  let u0 = Recorder.note_send r ~sender:1 ~at:(Sim_time.ms 1) () in
  Recorder.note_delivery r ~pid:2 ~uid:u0 ~at:(Sim_time.ms 2);
  let u1 = Recorder.note_send r ~sender:2 ~at:(Sim_time.ms 3) () in
  Recorder.note_delivery r ~pid:3 ~uid:u1 ~at:(Sim_time.ms 4);
  Recorder.note_delivery r ~pid:3 ~uid:u0 ~at:(Sim_time.ms 5);
  check_int "no causal-order finding" 0
    (count_kind Finding.Causal_order
       (Analyzer.analyze (Recorder.exec r)).Analyzer.findings)

let test_detect_hidden_channel () =
  (* Two senders coupled only by a declared channel edge; process 3 delivers
     the downstream send first -> Error with the observed inversion. *)
  let r = Recorder.create ~ordering:Exec.Causal_order ~label:"hidden" () in
  let u0 = Recorder.note_send r ~sender:1 ~at:(Sim_time.ms 1) () in
  let u1 = Recorder.note_send r ~sender:2 ~at:(Sim_time.ms 2) () in
  Recorder.note_order_requirement r ~before:u0 ~after:u1 ~via:"shared disk";
  Recorder.note_delivery r ~pid:3 ~uid:u1 ~at:(Sim_time.ms 3);
  Recorder.note_delivery r ~pid:3 ~uid:u0 ~at:(Sim_time.ms 4);
  let findings = (Analyzer.analyze (Recorder.exec r)).Analyzer.findings in
  check_int "one hidden channel" 1 (count_kind Finding.Hidden_channel findings);
  let f =
    List.find (fun f -> f.Finding.kind = Finding.Hidden_channel) findings
  in
  check_bool "error: inversion observed" true
    (f.Finding.severity = Finding.Error);
  check_bool "labels the channel" true
    (contains ~sub:"shared disk" f.Finding.summary)

let test_covered_channel_not_flagged () =
  (* Same constraint, but the downstream sender first delivered the upstream
     message: the transport covers the edge, nothing to report. *)
  let r = Recorder.create ~ordering:Exec.Causal_order ~label:"covered" () in
  let u0 = Recorder.note_send r ~sender:1 ~at:(Sim_time.ms 1) () in
  Recorder.note_delivery r ~pid:2 ~uid:u0 ~at:(Sim_time.ms 2);
  let u1 = Recorder.note_send r ~sender:2 ~at:(Sim_time.ms 3) () in
  Recorder.note_order_requirement r ~before:u0 ~after:u1 ~via:"shared disk";
  Recorder.note_delivery r ~pid:3 ~uid:u0 ~at:(Sim_time.ms 4);
  Recorder.note_delivery r ~pid:3 ~uid:u1 ~at:(Sim_time.ms 5);
  check_int "no findings at all" 0
    (List.length (Analyzer.analyze (Recorder.exec r)).Analyzer.findings)

let test_detect_false_causality () =
  (* Two independent streams under a causal discipline: the second sender
     declares no semantic dependencies, so the enforced context entry from
     the other stream is false causality. *)
  let r = Recorder.create ~ordering:Exec.Causal_order ~label:"fc" () in
  let u0 = Recorder.note_send r ~sender:1 ~semantic:[] ~at:(Sim_time.ms 1) () in
  Recorder.note_delivery r ~pid:2 ~uid:u0 ~at:(Sim_time.ms 2);
  let _u1 = Recorder.note_send r ~sender:2 ~semantic:[] ~at:(Sim_time.ms 3) () in
  let findings = (Analyzer.analyze (Recorder.exec r)).Analyzer.findings in
  check_int "one false-causality finding" 1
    (count_kind Finding.False_causality findings);
  (* undeclared semantics: the detector stays silent *)
  let r' = Recorder.create ~ordering:Exec.Causal_order ~label:"fc off" () in
  let v0 = Recorder.note_send r' ~sender:1 ~at:(Sim_time.ms 1) () in
  Recorder.note_delivery r' ~pid:2 ~uid:v0 ~at:(Sim_time.ms 2);
  let _v1 = Recorder.note_send r' ~sender:2 ~at:(Sim_time.ms 3) () in
  check_int "undeclared -> silent" 0
    (count_kind Finding.False_causality
       (Analyzer.analyze (Recorder.exec r')).Analyzer.findings)

let test_detect_stability_lag () =
  (* 24 prompt messages and one extreme straggler; the threshold needs at
     least stability_min_samples delivered messages. *)
  let r = Recorder.create ~label:"lag" () in
  let straggler = ref (-1) in
  for i = 0 to 24 do
    let at = Sim_time.ms (10 * (i + 1)) in
    let uid = Recorder.note_send r ~sender:1 ~at () in
    if i = 12 then begin
      straggler := uid;
      Recorder.note_delivery r ~pid:2 ~uid ~at:(Sim_time.add at (Sim_time.ms 400))
    end
    else
      Recorder.note_delivery r ~pid:2 ~uid ~at:(Sim_time.add at (Sim_time.us 700))
  done;
  let findings = (Analyzer.analyze (Recorder.exec r)).Analyzer.findings in
  check_int "one outlier" 1 (count_kind Finding.Stability_lag findings);
  let f =
    List.find (fun f -> f.Finding.kind = Finding.Stability_lag) findings
  in
  check_bool "the straggler" true (f.Finding.uids = [ !straggler ])

(* --- figure reproductions --------------------------------------------------- *)

let test_fig1_clean () =
  (* Figure 1: every ordering constraint flows through the transport, so the
     sanitizer must stay silent. *)
  let result = Analyzer.analyze (Diagrams.fig1_exec ()) in
  check_int "zero findings" 0 (List.length result.Analyzer.findings)

let test_fig2_hidden_channel () =
  (* Figure 2 (shop floor): the shared database carries the start->stop
     ordering; the analyzer must call out the hidden channel. *)
  let findings = (Analyzer.analyze (Diagrams.fig2_exec ())).Analyzer.findings in
  check_bool "hidden-channel reported" true
    (has_kind Finding.Hidden_channel findings);
  let f =
    List.find (fun f -> f.Finding.kind = Finding.Hidden_channel) findings
  in
  check_bool "blames the database" true
    (contains ~sub:"database" f.Finding.summary);
  check_bool "observed inversion -> error" true
    (f.Finding.severity = Finding.Error)

let test_fig3_hidden_channel () =
  (* Figure 3 (fire alarm): the physical world is the channel. *)
  let findings = (Analyzer.analyze (Diagrams.fig3_exec ())).Analyzer.findings in
  check_bool "hidden-channel reported" true
    (has_kind Finding.Hidden_channel findings);
  let f =
    List.find (fun f -> f.Finding.kind = Finding.Hidden_channel) findings
  in
  check_bool "blames the physical world" true
    (contains ~sub:"physical world" f.Finding.summary)

let test_deceit_store_hidden_channel () =
  (* Fig. 1 out-of-band request: the client re-issues writes through another
     server; its program order is the channel. *)
  let recorder =
    Recorder.create ~ordering:Exec.Causal_order ~label:"deceit" ()
  in
  ignore
    (Deceit_store.run ~recorder
       { Deceit_store.default_config with Deceit_store.out_of_band_writes = 12 });
  let findings =
    (Analyzer.analyze (Recorder.exec recorder)).Analyzer.findings
  in
  check_bool "hidden-channel reported" true
    (has_kind Finding.Hidden_channel findings);
  check_bool "client write order named" true
    (List.exists
       (fun f ->
         f.Finding.kind = Finding.Hidden_channel
         && contains ~sub:"client write order" f.Finding.summary)
       findings)

let test_false_causality_experiment () =
  (* Section 3.4 workload: independent streams under causal order; every
     cross-stream context entry is false causality. *)
  let result = Analyzer.analyze (False_causality.record ()) in
  check_bool "false-causality reported" true
    (has_kind Finding.False_causality result.Analyzer.findings);
  check_bool "only false-causality findings" true
    (kinds_of result.Analyzer.findings = [ Finding.False_causality ]);
  let stat name =
    match List.assoc_opt name result.Analyzer.stats with
    | Some (Json.Int n) -> n
    | Some _ | None -> Alcotest.failf "missing stat %s" name
  in
  check_bool "false context is counted" true
    (stat "false_context_entries" > 0
    && stat "false_context_entries" <= stat "context_entries");
  (* under FIFO the coupling disappears: same workload, no findings *)
  let fifo =
    Analyzer.analyze (False_causality.record ~ordering:Config.Fifo ())
  in
  check_int "fifo has no false causality" 0
    (count_kind Finding.False_causality fifo.Analyzer.findings)

(* --- figures under PC-broadcast ---------------------------------------------- *)

(* The paper's anomalies are about what the transport cannot see, so they
   are invariant under the causal implementation: swapping BSS vector
   timestamps for PC-broadcast constant metadata must leave fig1 clean and
   figs 2-4 anomalous. These mirror the `repro-analyze experiment fig*-pc
   --expect ...` CLI assertions CI runs. *)

let test_fig1_pc_clean () =
  let result =
    Analyzer.analyze (Diagrams.fig1_exec ~causal_impl:Config.Pc_causal ())
  in
  check_int "zero findings" 0 (List.length result.Analyzer.findings)

let test_fig2_pc_hidden_channel () =
  let findings =
    (Analyzer.analyze (Diagrams.fig2_exec ~causal_impl:Config.Pc_causal ()))
      .Analyzer.findings
  in
  check_bool "hidden-channel reported" true
    (has_kind Finding.Hidden_channel findings);
  check_bool "blames the database" true
    (List.exists
       (fun f ->
         f.Finding.kind = Finding.Hidden_channel
         && contains ~sub:"database" f.Finding.summary)
       findings)

let test_fig3_pc_hidden_channel () =
  let findings =
    (Analyzer.analyze (Diagrams.fig3_exec ~causal_impl:Config.Pc_causal ()))
      .Analyzer.findings
  in
  check_bool "hidden-channel reported" true
    (has_kind Finding.Hidden_channel findings);
  check_bool "blames the physical world" true
    (List.exists
       (fun f ->
         f.Finding.kind = Finding.Hidden_channel
         && contains ~sub:"physical world" f.Finding.summary)
       findings)

let test_fig4_pc_false_crossing () =
  (* Figure 4 has no recorded execution (the constraint is semantic, not
     happened-before): assert on the app's own counters under PC. *)
  let r =
    Trading.run
      { Trading.default_config with Trading.causal_impl = Config.Pc_causal }
  in
  check_bool "naive display shows false crossings under pc" true
    (r.Trading.naive_false_crossings > 0);
  check_int "dependency fields still fix it" 0
    r.Trading.dep_cache_false_crossings

(* --- checker integration ----------------------------------------------------- *)

let test_clean_cbcast_run_is_silent () =
  (* Acceptance criterion: zero findings on a clean CBCAST run (no faults:
     fault-induced lag outliers are legitimate findings, not noise). *)
  List.iter
    (fun seed ->
      let plan =
        Fault_plan.with_faults
          (Fault_plan.generate ~seed Fault_plan.default_profile)
          []
      in
      let exec, verdict =
        Runner.exec_of_plan ~ordering:Config.Causal ~seed plan
      in
      (match verdict with
       | Runner.Pass _ -> ()
       | Runner.Fail r ->
         Alcotest.failf "clean run failed the oracle:@.%a" Runner.pp_report r);
      let result = Analyzer.analyze exec in
      check_int
        (Printf.sprintf "seed %d silent" seed)
        0
        (List.length result.Analyzer.findings))
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]

let test_hb_consistent_with_oracle_verdicts () =
  (* qcheck property over checker seeds: the happened-before DAG of a
     recorded run is acyclic, and when the oracles pass a cbcast run the
     analyzer agrees — no causal-order, cycle, or duplicate findings. *)
  let property seed =
    let exec, verdict = Runner.exec_of_seed ~ordering:Config.Causal ~seed () in
    let result = Analyzer.analyze exec in
    let acyclic = Hb.find_cycle result.Analyzer.hb = None in
    match verdict with
    | Runner.Fail _ ->
      (* the checker's own sweeps assert this never happens; if it does,
         don't let the analyzer contradict silence *)
      acyclic
    | Runner.Pass _ ->
      acyclic
      && (not (has_kind Finding.Causal_order result.Analyzer.findings))
      && (not (has_kind Finding.Causal_cycle result.Analyzer.findings))
      && not (has_kind Finding.Duplicate_uid result.Analyzer.findings)
  in
  QCheck.Test.make ~count:100 ~name:"hb acyclic & consistent with oracle"
    (QCheck.int_bound 100_000) property

let test_analyzer_catches_broken_bss () =
  (* Mutation cross-check: disable the BSS causal delivery condition; on a
     seed the oracle convicts, the analyzer's offline causal-order detector
     must convict too. *)
  Delivery_queue.chaos_disable_causal_check := true;
  Fun.protect
    ~finally:(fun () -> Delivery_queue.chaos_disable_causal_check := false)
    (fun () ->
      let rec hunt seed =
        if seed > 200 then Alcotest.fail "no violating seed found"
        else
          let exec, verdict =
            Runner.exec_of_seed ~ordering:Config.Causal ~seed ()
          in
          match verdict with
          | Runner.Pass _ -> hunt (seed + 1)
          | Runner.Fail _ ->
            let result = Analyzer.analyze exec in
            check_bool
              (Printf.sprintf "seed %d: analyzer convicts too" seed)
              true
              (has_kind Finding.Causal_order result.Analyzer.findings)
      in
      hunt 0)

let test_report_json_schema () =
  let exec, _ = Runner.exec_of_seed ~ordering:Config.Causal ~seed:3 () in
  let doc = Analyzer.report_json ~mode:"test" [ Analyzer.analyze exec ] in
  (* the document reparses and carries the schema's fixed keys *)
  (match Json.of_string (Json.to_string doc) with
   | Ok reparsed -> check_bool "reparses identically" true (reparsed = doc)
   | Error e -> Alcotest.failf "emitted JSON does not parse: %s" e);
  check_bool "schema_version" true
    (Option.bind (Json.member "schema_version" doc) Json.to_int = Some 1);
  check_bool "tool" true
    (Option.bind (Json.member "tool" doc) Json.to_str = Some "repro-analyze");
  check_bool "counts present" true
    (Option.is_some
       (Option.bind (Json.member "counts" doc) (Json.member "error")))

(* --- suite ------------------------------------------------------------------ *)

let () =
  Alcotest.run "repro_analyze"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "lint",
        [
          Alcotest.test_case "strip comments and strings" `Quick
            test_lint_strip;
          Alcotest.test_case "scan flags hazards" `Quick test_lint_scan;
        ] );
      ( "hb",
        [
          Alcotest.test_case "reachability" `Quick test_hb_reachability;
          Alcotest.test_case "transitive reduction" `Quick
            test_hb_transitive_reduction;
          Alcotest.test_case "cycle witness" `Quick test_hb_cycle_witness;
        ] );
      ( "detectors",
        [
          Alcotest.test_case "duplicate uid" `Quick test_detect_duplicate_uid;
          Alcotest.test_case "causal cycle" `Quick test_detect_causal_cycle;
          Alcotest.test_case "causal-order inversion" `Quick
            test_detect_causal_order_violation;
          Alcotest.test_case "fifo mode exempt" `Quick
            test_fifo_mode_not_blamed_for_causal_inversion;
          Alcotest.test_case "hidden channel" `Quick test_detect_hidden_channel;
          Alcotest.test_case "covered channel silent" `Quick
            test_covered_channel_not_flagged;
          Alcotest.test_case "false causality" `Quick
            test_detect_false_causality;
          Alcotest.test_case "stability lag" `Quick test_detect_stability_lag;
        ] );
      ( "figures",
        [
          Alcotest.test_case "fig1 clean" `Quick test_fig1_clean;
          Alcotest.test_case "fig2 shop floor" `Quick test_fig2_hidden_channel;
          Alcotest.test_case "fig3 fire alarm" `Quick test_fig3_hidden_channel;
          Alcotest.test_case "deceit store out-of-band" `Quick
            test_deceit_store_hidden_channel;
          Alcotest.test_case "false causality experiment" `Quick
            test_false_causality_experiment;
        ] );
      ( "figures-pc",
        [
          Alcotest.test_case "fig1 clean under pc" `Quick test_fig1_pc_clean;
          Alcotest.test_case "fig2 shop floor under pc" `Quick
            test_fig2_pc_hidden_channel;
          Alcotest.test_case "fig3 fire alarm under pc" `Quick
            test_fig3_pc_hidden_channel;
          Alcotest.test_case "fig4 trading under pc" `Quick
            test_fig4_pc_false_crossing;
        ] );
      ( "checker",
        [
          Alcotest.test_case "clean cbcast runs silent" `Slow
            test_clean_cbcast_run_is_silent;
          QCheck_alcotest.to_alcotest (test_hb_consistent_with_oracle_verdicts ());
          Alcotest.test_case "broken BSS convicted offline" `Slow
            test_analyzer_catches_broken_bss;
          Alcotest.test_case "findings document schema" `Quick
            test_report_json_schema;
        ] );
    ]
