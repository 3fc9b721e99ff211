(* Tests for the schedule-exploration checker itself: the per-ordering seed
   sweeps that gate the repo, determinism of the seed -> verdict pipeline, and
   the mutation tests — deliberately breaking the BSS causal delivery
   condition, PC forwarding, the hybrid drain condition, or the sparse
   stability clock's minima cache, and requiring the checker to catch each
   with a shrunk counterexample. *)

module Config = Repro_catocs.Config
module Delivery_queue = Repro_catocs.Delivery_queue
module Pc_causal = Repro_catocs.Pc_causal
module Hybrid_causal = Repro_catocs.Hybrid_causal
module Runner = Repro_check.Runner
module Fault_plan = Repro_check.Fault_plan
module Oracle = Repro_check.Oracle

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- sweeps -------------------------------------------------------------- *)

(* One hundred seeds per ordering mode: every seed samples a fault plan (loss
   and duplication bursts, partitions, crashes, mid-multicast crashes, joins)
   and the oracles must find no violation. *)
let sweep_seeds = 100

let test_sweep ?start_seed ?causal_impl ordering () =
  let result =
    Runner.sweep ?start_seed ?causal_impl ~ordering ~seeds:sweep_seeds ()
  in
  (match result.Runner.failed with
  | None -> ()
  | Some report ->
    Alcotest.failf "sweep found a violation:@.%a" Runner.pp_report report);
  check_int "all seeds passed" sweep_seeds result.Runner.passed;
  check_bool "traffic flowed" true (result.Runner.total_deliveries > 0)

(* The next hundred seeds (100-199): fresh fault plans for the same
   oracles, so the delivery queue's buffering path meets twice the plans. *)
let test_sweep_next_block ordering () =
  test_sweep ~start_seed:sweep_seeds ordering ()

(* The PC-broadcast causal implementation under the full fault battery:
   same oracles, same 100 seeds. Only the causal layer dispatches on it,
   so cbcast is the interesting mode. *)
let test_sweep_pc () = test_sweep ~causal_impl:Config.Pc_causal Config.Causal ()

(* Hybrid buffering rides the same substrate: the suppression ledger and
   the park/drain path replace forwarding sends and pong rescans, and the
   oracles must still find nothing across the same 100 fault plans. *)
let test_sweep_hybrid () =
  test_sweep ~causal_impl:Config.Hybrid_causal Config.Causal ()

(* --- determinism --------------------------------------------------------- *)

let test_deterministic_verdicts () =
  (* Same seed, same ordering -> byte-identical verdict fingerprint. *)
  List.iter
    (fun (name, ordering) ->
      List.iter
        (fun seed ->
          let a = Runner.fingerprint (Runner.run_seed ~ordering ~seed ()) in
          let b = Runner.fingerprint (Runner.run_seed ~ordering ~seed ()) in
          check_string (Printf.sprintf "%s seed %d" name seed) a b)
        [ 0; 7; 42 ])
    Runner.orderings

(* Verdict fingerprints for seeds 0-9 under every ordering, then for the
   pc causal stack, recorded in [golden/queue_fingerprints.txt] while the
   stacks still buffered through a per-sender indexed delivery queue. The
   list queue must reproduce every line. *)
let queue_golden = "golden/queue_fingerprints.txt"

(* Under [dune runtest] the cwd is the test directory; under [dune exec]
   from the project root the golden lives one level down. *)
let golden_lines =
  lazy
    (In_channel.with_open_bin
       (if Sys.file_exists queue_golden then queue_golden
        else Filename.concat "test" queue_golden)
       In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> ""))

let fingerprint_line name seed verdict =
  Printf.sprintf "%s seed=%d %s" name seed (Runner.fingerprint verdict)

let pc_fingerprint_line ?stability_impl seed =
  fingerprint_line "pc" seed
    (Runner.run_seed ?stability_impl ~causal_impl:Config.Pc_causal
       ~ordering:Config.Causal ~seed ())

let check_golden_line line =
  if not (List.mem line (Lazy.force golden_lines)) then
    Alcotest.failf "%s: not in %s" line queue_golden

let test_cross_impl_verdicts () =
  let actual =
    List.concat_map
      (fun (name, ordering) ->
        List.init 10 (fun seed ->
            fingerprint_line name seed (Runner.run_seed ~ordering ~seed ())))
      Runner.orderings
    @ List.init 10 (fun seed -> pc_fingerprint_line seed)
  in
  check_int "golden lines" (List.length (Lazy.force golden_lines))
    (List.length actual);
  List.iter check_golden_line actual

let test_cross_stability_verdicts () =
  (* The incremental and reference stability trackers are whole-stack
     equivalent too: flush rounds re-multicast exactly the unstable
     messages, so a divergent release would change deliveries and break
     the fingerprint. *)
  List.iter
    (fun (name, ordering) ->
      List.iter
        (fun seed ->
          let incremental =
            Runner.fingerprint
              (Runner.run_seed ~stability_impl:Config.Incremental_stability
                 ~ordering ~seed ())
          in
          let reference =
            Runner.fingerprint
              (Runner.run_seed ~stability_impl:Config.Reference_stability
                 ~ordering ~seed ())
          in
          check_string
            (Printf.sprintf "%s seed %d cross-stability" name seed)
            incremental reference)
        (List.init 10 Fun.id))
    Runner.orderings

let test_pc_deterministic_verdicts () =
  (* The PC path is as deterministic as the BSS one: forwarding, the link
     barrier and retransmission all key off the engine schedule only. *)
  List.iter
    (fun seed ->
      let a =
        Runner.fingerprint
          (Runner.run_seed ~causal_impl:Config.Pc_causal
             ~ordering:Config.Causal ~seed ())
      in
      let b =
        Runner.fingerprint
          (Runner.run_seed ~causal_impl:Config.Pc_causal
             ~ordering:Config.Causal ~seed ())
      in
      check_string (Printf.sprintf "pc seed %d" seed) a b)
    [ 0; 7; 42 ]

let test_pc_cross_impl_verdicts () =
  (* Within the PC family the stability implementations are still
     whole-stack interchangeable: byte-identical fingerprints, and the
     incremental run matches its golden queue line. (Vector vs pc
     fingerprints are deliberately NOT compared byte-for-byte — relayed
     copies shift delivery instants, so only verdict agreement is
     specified; see test_vector_pc_agreement.) *)
  List.iter
    (fun seed ->
      let incremental =
        pc_fingerprint_line ~stability_impl:Config.Incremental_stability seed
      in
      check_golden_line incremental;
      let ref_stab =
        pc_fingerprint_line ~stability_impl:Config.Reference_stability seed
      in
      check_string
        (Printf.sprintf "pc seed %d cross-stability" seed)
        incremental ref_stab)
    (List.init 10 Fun.id)

let test_vector_pc_agreement () =
  (* The three causal implementations must agree on the verdict for every
     seed: all pass the oracles under the same fault plan. *)
  List.iter
    (fun seed ->
      List.iter
        (fun (name, causal_impl) ->
          match Runner.run_seed ~causal_impl ~ordering:Config.Causal ~seed () with
          | Runner.Pass _ -> ()
          | Runner.Fail r ->
            Alcotest.failf "%s fails seed %d:@.%a" name seed Runner.pp_report r)
        [ ("bss", Config.Vector_causal); ("pc", Config.Pc_causal);
          ("hybrid", Config.Hybrid_causal) ])
    (List.init 10 Fun.id)

let test_hybrid_deterministic_verdicts () =
  (* The hybrid path keys off the engine schedule only, like PC. *)
  List.iter
    (fun seed ->
      let run () =
        Runner.fingerprint
          (Runner.run_seed ~causal_impl:Config.Hybrid_causal
             ~ordering:Config.Causal ~seed ())
      in
      check_string (Printf.sprintf "hybrid seed %d" seed) (run ()) (run ()))
    [ 0; 7; 42 ]

let test_cross_clock_verdicts () =
  (* The sparse stability clock reproduces the dense tracker's advance
     callbacks byte-for-byte, so stability releases — and hence flush
     contents, deliveries and verdicts — must be identical: same seed,
     byte-identical fingerprint under either clock, for every ordering and
     for the pc/hybrid causal family. *)
  List.iter
    (fun (name, ordering) ->
      List.iter
        (fun seed ->
          let dense =
            Runner.fingerprint
              (Runner.run_seed ~stability_clock:Config.Dense_clock ~ordering
                 ~seed ())
          in
          let sparse =
            Runner.fingerprint
              (Runner.run_seed ~stability_clock:Config.Sparse_clock ~ordering
                 ~seed ())
          in
          check_string
            (Printf.sprintf "%s seed %d cross-clock" name seed)
            dense sparse)
        (List.init 10 Fun.id))
    Runner.orderings;
  List.iter
    (fun (name, causal_impl) ->
      List.iter
        (fun seed ->
          let dense =
            Runner.fingerprint
              (Runner.run_seed ~causal_impl
                 ~stability_clock:Config.Dense_clock ~ordering:Config.Causal
                 ~seed ())
          in
          let sparse =
            Runner.fingerprint
              (Runner.run_seed ~causal_impl
                 ~stability_clock:Config.Sparse_clock ~ordering:Config.Causal
                 ~seed ())
          in
          check_string
            (Printf.sprintf "%s seed %d cross-clock" name seed)
            dense sparse)
        (List.init 5 Fun.id))
    [ ("pc", Config.Pc_causal); ("hybrid", Config.Hybrid_causal) ]

(* --- parallel engine ------------------------------------------------------ *)

let causal_impls =
  [ ("bss", Config.Vector_causal); ("pc", Config.Pc_causal);
    ("hybrid", Config.Hybrid_causal) ]

let par_fp ~causal_impl ~domains seed =
  Runner.fingerprint
    (Runner.run_seed
       ~engine_impl:(Engine.Parallel { domains })
       ~causal_impl ~ordering:Config.Causal ~seed ())

let test_cross_domain_fingerprints () =
  (* The tentpole determinism contract: the same seed yields a byte-identical
     verdict fingerprint (sends, deliveries, violation) for every domain
     count, for all three causal implementations. [Parallel {domains = 1}]
     is the anchor — domains=2 and 4 only repartition the same lanes. *)
  List.iter
    (fun (name, causal_impl) ->
      List.iter
        (fun seed ->
          let f1 = par_fp ~causal_impl ~domains:1 seed in
          let f2 = par_fp ~causal_impl ~domains:2 seed in
          let f4 = par_fp ~causal_impl ~domains:4 seed in
          check_string (Printf.sprintf "%s seed %d d1=d2" name seed) f1 f2;
          check_string (Printf.sprintf "%s seed %d d1=d4" name seed) f1 f4)
        [ 0; 1; 2; 3; 4 ])
    causal_impls

let test_parallel_sweep_clean () =
  (* The full fault battery (loss and duplication bursts, partitions,
     crashes, joins) under the parallel engine: the oracles must find
     nothing, same as the sequential sweeps above. *)
  List.iter
    (fun (name, causal_impl) ->
      let result =
        Runner.sweep
          ~engine_impl:(Engine.Parallel { domains = 2 })
          ~causal_impl ~ordering:Config.Causal ~seeds:25 ()
      in
      match result.Runner.failed with
      | None -> check_int (name ^ " seeds passed") 25 result.Runner.passed
      | Some report ->
        Alcotest.failf "parallel %s sweep found a violation:@.%a" name
          Runner.pp_report report)
    causal_impls

(* Mutation: order the barrier merge by worker share instead of the
   (time, lane, seq) sort — the domain-count-dependent interleaving a merge
   keyed off scheduling state would produce. A star workload with a fixed
   latency makes the receiver's delivery log literally equal to the merge
   order of one barrier: seven lanes each send the sink one message at the
   same instant, so all seven arrivals tie on time and only the sort
   tie-break orders them. *)
let merge_order_log ~domains =
  let net = Net.create ~latency:(Net.Fixed (Sim_time.us 700)) () in
  let engine =
    Engine.create ~impl:(Engine.Parallel { domains }) ~seed:11L ~net ()
  in
  let log = Buffer.create 64 in
  let sink =
    Engine.spawn engine ~name:"sink" (fun _ env ->
        Buffer.add_string log (Printf.sprintf "%d;" env.Engine.src))
  in
  let senders =
    List.init 7 (fun i ->
        Engine.spawn engine ~name:(Printf.sprintf "s%d" i) (fun _ _ -> ()))
  in
  List.iter
    (fun p ->
      Engine.at engine ~owner:p (Sim_time.us 1_000) (fun () ->
          Engine.send engine ~src:p ~dst:sink p))
    senders;
  Engine.run ~until:(Sim_time.ms 5) engine;
  Buffer.contents log

let with_broken_merge_order f =
  Atomic.set Engine.chaos_merge_share_order true;
  Fun.protect
    ~finally:(fun () -> Atomic.set Engine.chaos_merge_share_order false)
    f

let test_broken_merge_order_is_caught () =
  let healthy = merge_order_log ~domains:1 in
  check_string "healthy merge is (time, lane, seq) ordered" "1;2;3;4;5;6;7;"
    healthy;
  check_string "healthy d2 matches d1" healthy (merge_order_log ~domains:2);
  with_broken_merge_order (fun () ->
      (* at domains=1 every share coincides, so the mutation is invisible —
         which is exactly why the identity tests compare against d1 *)
      check_string "mutated d1 degenerates to healthy" healthy
        (merge_order_log ~domains:1);
      let mutated = merge_order_log ~domains:2 in
      check_bool "share-ordered merge breaks cross-domain identity" true
        (mutated <> healthy);
      check_string "mutated d2 interleaves by share" "2;4;6;1;3;5;7;" mutated);
  (* healed: identity restored *)
  check_string "healed d2 matches d1 again" healthy (merge_order_log ~domains:2)

let test_plan_generation_deterministic () =
  let profile = Fault_plan.default_profile in
  let show plan = Format.asprintf "%a" Fault_plan.pp plan in
  List.iter
    (fun seed ->
      check_string
        (Printf.sprintf "plan for seed %d" seed)
        (show (Fault_plan.generate ~seed profile))
        (show (Fault_plan.generate ~seed profile)))
    [ 0; 3; 99 ]

(* --- mutation: the checker must catch a broken stack --------------------- *)

(* Disable the BSS delivery condition in the causal delivery queue and confirm
   the checker convicts the stack within the standard 100-seed budget,
   reporting a seed, a shrunk fault plan, and a delivery trace. *)
let with_broken_causal_check f =
  Delivery_queue.chaos_disable_causal_check := true;
  Fun.protect
    ~finally:(fun () -> Delivery_queue.chaos_disable_causal_check := false)
    f

let find_broken_report () =
  with_broken_causal_check (fun () ->
      let result = Runner.sweep ~ordering:Config.Causal ~seeds:sweep_seeds () in
      match result.Runner.failed with
      | Some report -> report
      | None ->
        Alcotest.fail
          "checker failed to catch the disabled causal delivery condition")

let test_broken_bss_is_caught () =
  let report = find_broken_report () in
  check_string "causal oracle convicts" "causal-order"
    report.Runner.violation.Oracle.oracle;
  check_bool "counterexample was shrunk" true report.Runner.shrunk;
  check_bool "trace names the implicated messages" true
    (String.length report.Runner.trace > 0
    && report.Runner.violation.Oracle.uids <> []);
  (* the shrunk plan is itself a complete reproducer: replaying it (without
     re-shrinking) under the same seed fails the same oracle *)
  with_broken_causal_check (fun () ->
      match
        Runner.replay ~ordering:report.Runner.ordering ~seed:report.Runner.seed
          report.Runner.plan
      with
      | Runner.Fail replayed ->
        check_string "replay convicts the same oracle"
          report.Runner.violation.Oracle.oracle
          replayed.Runner.violation.Oracle.oracle
      | Runner.Pass _ -> Alcotest.fail "shrunk plan no longer reproduces");
  (* with the stack healed, the very same seed passes again *)
  match Runner.run_seed ~ordering:Config.Causal ~seed:report.Runner.seed () with
  | Runner.Pass _ -> ()
  | Runner.Fail r ->
    Alcotest.failf "healed stack still fails:@.%a" Runner.pp_report r

let test_broken_bss_deterministic () =
  (* The conviction itself is reproducible: two independent hunts produce the
     same seed, plan, and violation. *)
  let show r = Format.asprintf "%a" Runner.pp_report r in
  let a = find_broken_report () in
  let b = find_broken_report () in
  check_string "identical counterexample reports" (show a) (show b)

(* Same drill for PC-broadcast: its causal guarantee rests entirely on
   forward-on-first-delivery over FIFO links. Turn the forwarding off and
   the per-origin contiguity gate alone must let a reaction overtake its
   trigger somewhere in the 100-seed budget. *)
let with_broken_pc_forwarding f =
  Pc_causal.chaos_disable_forwarding := true;
  Fun.protect
    ~finally:(fun () -> Pc_causal.chaos_disable_forwarding := false)
    f

let find_broken_pc_report () =
  with_broken_pc_forwarding (fun () ->
      let result =
        Runner.sweep ~causal_impl:Config.Pc_causal ~ordering:Config.Causal
          ~seeds:sweep_seeds ()
      in
      match result.Runner.failed with
      | Some report -> report
      | None ->
        Alcotest.fail "checker failed to catch disabled PC forwarding")

let test_broken_pc_is_caught () =
  let report = find_broken_pc_report () in
  check_string "causal oracle convicts" "causal-order"
    report.Runner.violation.Oracle.oracle;
  check_bool "counterexample was shrunk" true report.Runner.shrunk;
  with_broken_pc_forwarding (fun () ->
      match
        Runner.replay ~causal_impl:Config.Pc_causal
          ~ordering:report.Runner.ordering ~seed:report.Runner.seed
          report.Runner.plan
      with
      | Runner.Fail replayed ->
        check_string "replay convicts the same oracle"
          report.Runner.violation.Oracle.oracle
          replayed.Runner.violation.Oracle.oracle
      | Runner.Pass _ -> Alcotest.fail "shrunk plan no longer reproduces");
  (* with forwarding restored, the very same seed passes again *)
  match
    Runner.run_seed ~causal_impl:Config.Pc_causal ~ordering:Config.Causal
      ~seed:report.Runner.seed ()
  with
  | Runner.Pass _ -> ()
  | Runner.Fail r ->
    Alcotest.failf "healed pc stack still fails:@.%a" Runner.pp_report r

let test_broken_pc_deterministic () =
  let show r = Format.asprintf "%a" Runner.pp_report r in
  let a = find_broken_pc_report () in
  let b = find_broken_pc_report () in
  check_string "identical pc counterexample reports" (show a) (show b)

(* Hybrid drill: invert the needs-copy decision, so every first-time
   forward is suppressed and drains ship only redundant copies — the stack
   degrades to bare FIFO links and the causal oracle must convict. *)
let with_broken_hybrid_drain f =
  Hybrid_causal.chaos_invert_drain := true;
  Fun.protect
    ~finally:(fun () -> Hybrid_causal.chaos_invert_drain := false)
    f

let find_broken_hybrid_report () =
  with_broken_hybrid_drain (fun () ->
      let result =
        Runner.sweep ~causal_impl:Config.Hybrid_causal ~ordering:Config.Causal
          ~seeds:sweep_seeds ()
      in
      match result.Runner.failed with
      | Some report -> report
      | None ->
        Alcotest.fail "checker failed to catch the inverted hybrid drain")

let test_broken_hybrid_is_caught () =
  let report = find_broken_hybrid_report () in
  check_string "causal oracle convicts" "causal-order"
    report.Runner.violation.Oracle.oracle;
  check_bool "counterexample was shrunk" true report.Runner.shrunk;
  with_broken_hybrid_drain (fun () ->
      match
        Runner.replay ~causal_impl:Config.Hybrid_causal
          ~ordering:report.Runner.ordering ~seed:report.Runner.seed
          report.Runner.plan
      with
      | Runner.Fail replayed ->
        check_string "replay convicts the same oracle"
          report.Runner.violation.Oracle.oracle
          replayed.Runner.violation.Oracle.oracle
      | Runner.Pass _ -> Alcotest.fail "shrunk plan no longer reproduces");
  (* with the drain condition healed, the very same seed passes again *)
  match
    Runner.run_seed ~causal_impl:Config.Hybrid_causal ~ordering:Config.Causal
      ~seed:report.Runner.seed ()
  with
  | Runner.Pass _ -> ()
  | Runner.Fail r ->
    Alcotest.failf "healed hybrid stack still fails:@.%a" Runner.pp_report r

let test_broken_hybrid_deterministic () =
  let show r = Format.asprintf "%a" Runner.pp_report r in
  let a = find_broken_hybrid_report () in
  let b = find_broken_hybrid_report () in
  check_string "identical hybrid counterexample reports" (show a) (show b)

(* Sparse-clock drill: make the cached minima lie (report each column's
   maximum and fire the advance callback on every increase). Stability then
   releases messages not every member holds, flush rounds re-disseminate
   too little, and some oracle must convict within the sweep budget. *)
let with_overstated_minima f =
  Sparse_matrix_clock.chaos_overstate_minima := true;
  Fun.protect
    ~finally:(fun () -> Sparse_matrix_clock.chaos_overstate_minima := false)
    f

let find_overstated_minima_report () =
  with_overstated_minima (fun () ->
      let result =
        Runner.sweep ~stability_clock:Config.Sparse_clock
          ~ordering:Config.Causal ~seeds:sweep_seeds ()
      in
      match result.Runner.failed with
      | Some report -> report
      | None ->
        Alcotest.fail "checker failed to catch the overstated minima cache")

let test_overstated_minima_caught () =
  let report = find_overstated_minima_report () in
  check_bool "counterexample was shrunk" true report.Runner.shrunk;
  check_bool "an oracle named the violation" true
    (String.length report.Runner.violation.Oracle.oracle > 0);
  with_overstated_minima (fun () ->
      match
        Runner.replay ~stability_clock:Config.Sparse_clock
          ~ordering:report.Runner.ordering ~seed:report.Runner.seed
          report.Runner.plan
      with
      | Runner.Fail replayed ->
        check_string "replay convicts the same oracle"
          report.Runner.violation.Oracle.oracle
          replayed.Runner.violation.Oracle.oracle
      | Runner.Pass _ -> Alcotest.fail "shrunk plan no longer reproduces");
  (* with the cache healed, the very same seed passes under the sparse
     clock again *)
  match
    Runner.run_seed ~stability_clock:Config.Sparse_clock
      ~ordering:report.Runner.ordering ~seed:report.Runner.seed ()
  with
  | Runner.Pass _ -> ()
  | Runner.Fail r ->
    Alcotest.failf "healed sparse clock still fails:@.%a" Runner.pp_report r

(* --- suite --------------------------------------------------------------- *)

let () =
  Alcotest.run "repro_check"
    [
      ( "sweeps",
        List.map
          (fun (name, ordering) ->
            Alcotest.test_case
              (Printf.sprintf "%s %d seeds clean" name sweep_seeds)
              `Slow (test_sweep ordering))
          Runner.orderings );
      ( "sweeps-reference-queue",
        List.map
          (fun (name, ordering) ->
            Alcotest.test_case
              (Printf.sprintf "%s %d seeds clean" name sweep_seeds)
              `Slow (test_sweep_next_block ordering))
          Runner.orderings );
      ( "sweeps-pc",
        [
          Alcotest.test_case
            (Printf.sprintf "cbcast/pc %d seeds clean" sweep_seeds)
            `Slow test_sweep_pc;
          Alcotest.test_case
            (Printf.sprintf "cbcast/hybrid %d seeds clean" sweep_seeds)
            `Slow test_sweep_hybrid;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed same verdict" `Quick
            test_deterministic_verdicts;
          Alcotest.test_case "pc same seed same verdict" `Quick
            test_pc_deterministic_verdicts;
          Alcotest.test_case "hybrid same seed same verdict" `Quick
            test_hybrid_deterministic_verdicts;
          Alcotest.test_case "dense = sparse clock fingerprints" `Slow
            test_cross_clock_verdicts;
          Alcotest.test_case "pc cross queue/stability fingerprints" `Slow
            test_pc_cross_impl_verdicts;
          Alcotest.test_case "bss and pc verdicts agree" `Slow
            test_vector_pc_agreement;
          Alcotest.test_case "indexed = reference fingerprints" `Slow
            test_cross_impl_verdicts;
          Alcotest.test_case "incremental = reference stability fingerprints"
            `Slow test_cross_stability_verdicts;
          Alcotest.test_case "plan generation" `Quick
            test_plan_generation_deterministic;
        ] );
      ( "parallel-engine",
        [
          Alcotest.test_case "fingerprints identical at domains 1/2/4" `Slow
            test_cross_domain_fingerprints;
          Alcotest.test_case "25 seeds clean at domains=2" `Slow
            test_parallel_sweep_clean;
          Alcotest.test_case "broken barrier merge order caught" `Quick
            test_broken_merge_order_is_caught;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "broken BSS caught and shrunk" `Slow
            test_broken_bss_is_caught;
          Alcotest.test_case "conviction deterministic" `Slow
            test_broken_bss_deterministic;
          Alcotest.test_case "broken PC forwarding caught and shrunk" `Slow
            test_broken_pc_is_caught;
          Alcotest.test_case "pc conviction deterministic" `Slow
            test_broken_pc_deterministic;
          Alcotest.test_case "inverted hybrid drain caught and shrunk" `Slow
            test_broken_hybrid_is_caught;
          Alcotest.test_case "hybrid conviction deterministic" `Slow
            test_broken_hybrid_deterministic;
          Alcotest.test_case "overstated minima cache caught and shrunk" `Slow
            test_overstated_minima_caught;
        ] );
    ]
