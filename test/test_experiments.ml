(* Tests for the experiment harness: tables render, sweeps produce the
   paper-predicted shapes, diagrams reproduce the figures. *)

module E = Repro_experiments
module Table = E.Table

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Table ------------------------------------------------------------------ *)

let test_table_render () =
  let t =
    Table.make ~id:"t" ~title:"demo" ~paper_ref:"nowhere"
      ~columns:[ "a"; "bbb" ]
      ~notes:[ "a note" ]
      [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  let s = Format.asprintf "%a" Table.render t in
  let contains needle =
    let n = String.length s and m = String.length needle in
    let rec scan i = i + m <= n && (String.sub s i m = needle || scan (i + 1)) in
    scan 0
  in
  check_bool "has id" true (contains "== t: demo");
  check_bool "has ref" true (contains "(nowhere)");
  check_bool "has note" true (contains "note: a note");
  check_bool "has cells" true (contains "333")

let test_table_cells () =
  Alcotest.(check string) "int" "42" (Table.cell_int 42);
  Alcotest.(check string) "float" "3.14" (Table.cell_float 3.142);
  Alcotest.(check string) "float decimals" "3.1" (Table.cell_float ~decimals:1 3.14);
  Alcotest.(check string) "bool" "yes" (Table.cell_bool true);
  Alcotest.(check string) "pct" "25.0%" (Table.cell_pct 0.25);
  Alcotest.(check string) "nan" "n/a" (Table.cell_float nan);
  Alcotest.(check string) "ms" "1.50ms" (Table.cell_us_as_ms 1500.0)

let test_fit_log_slope () =
  (* y = x^2 exactly *)
  let points = List.map (fun x -> (float_of_int x, float_of_int (x * x))) [ 2; 4; 8; 16 ] in
  Alcotest.(check (float 1e-6)) "quadratic slope" 2.0 (Table.fit_log_slope points);
  let linear = List.map (fun x -> (float_of_int x, 3.0 *. float_of_int x)) [ 2; 4; 8 ] in
  Alcotest.(check (float 1e-6)) "linear slope" 1.0 (Table.fit_log_slope linear);
  check_bool "degenerate is nan" true (Float.is_nan (Table.fit_log_slope []))

(* --- scaling (Section 5) ------------------------------------------------------ *)

let test_scaling_superlinear_system_buffering () =
  let points = E.Scaling.sweep ~sizes:[ 4; 8; 16 ] () in
  check_int "three points" 3 (List.length points);
  let system_slope =
    Table.fit_log_slope
      (List.map
         (fun p ->
           (float_of_int p.E.Scaling.group_size,
            float_of_int p.E.Scaling.system_unstable_bytes))
         points)
  in
  check_bool "system buffering superlinear" true (system_slope > 1.5);
  let node_slope =
    Table.fit_log_slope
      (List.map
         (fun p ->
           (float_of_int p.E.Scaling.group_size,
            float_of_int p.E.Scaling.peak_node_unstable_bytes))
         points)
  in
  check_bool "per-node buffering grows" true (node_slope > 0.8);
  List.iter
    (fun p -> check_bool "buffers actually used" true (p.E.Scaling.peak_node_unstable_msgs > 0))
    points

let test_scaling_load_grows_transit () =
  let points =
    E.Scaling.sweep ~sizes:[ 4; 16 ] ~processing_time:(Sim_time.us 250) ()
  in
  match points with
  | [ small; big ] ->
    check_bool "transit grows with N under load" true
      (big.E.Scaling.mean_transit_us > small.E.Scaling.mean_transit_us)
  | _ -> Alcotest.fail "expected two points"

(* The reference stability tracker stays a live scaling option
   (repro-lint's dispatch-coverage contract pins this): the same workload
   over it must deliver exactly as much as over the incremental one. *)
let test_scaling_reference_impls_agree () =
  let measure stability_impl =
    E.Scaling.measure_with_graph ~duration:(Sim_time.ms 200) ~seed:7L
      ~stability_impl ~track_graph:false 4
  in
  let incremental = measure Repro_catocs.Config.Incremental_stability in
  let reference = measure Repro_catocs.Config.Reference_stability in
  check_bool "reference run delivers" true
    (reference.E.Scaling.deliveries_total > 0);
  check_int "same app deliveries" incremental.E.Scaling.app_deliveries_total
    reference.E.Scaling.app_deliveries_total;
  check_int "same messages" incremental.E.Scaling.messages_total
    reference.E.Scaling.messages_total

(* --- false causality ----------------------------------------------------------- *)

let test_false_causality_ordering_costs () =
  let points = E.False_causality.sweep ~group_size:6 ~jitters_ms:[ 20 ] () in
  let find ordering =
    List.find (fun p -> p.E.False_causality.ordering = ordering) points
  in
  let fifo = find Repro_catocs.Config.Fifo in
  let causal = find Repro_catocs.Config.Causal in
  let total = find Repro_catocs.Config.Total_sequencer in
  check_bool "causal delays more than fifo" true
    (causal.E.False_causality.mean_queue_wait_us
     >= fifo.E.False_causality.mean_queue_wait_us);
  check_bool "total delays more than causal" true
    (total.E.False_causality.mean_queue_wait_us
     > causal.E.False_causality.mean_queue_wait_us);
  check_bool "fifo headers smallest" true
    (fifo.E.False_causality.header_bytes_per_msg
     < causal.E.False_causality.header_bytes_per_msg)

(* E5 as the table prints it (8 members, seed 21) at its widest jitter:
   queue wait ranks fifo <= causal < total-seq, and the registry-derived
   transit p99 is a real number for every ordering. *)
let test_false_causality_e5_trend () =
  let points = E.False_causality.sweep ~jitters_ms:[ 30 ] () in
  let find ordering =
    List.find (fun p -> p.E.False_causality.ordering = ordering) points
  in
  let fifo = find Repro_catocs.Config.Fifo in
  let causal = find Repro_catocs.Config.Causal in
  let total = find Repro_catocs.Config.Total_sequencer in
  let wait p = p.E.False_causality.mean_queue_wait_us in
  check_bool "fifo <= causal" true (wait fifo <= wait causal);
  check_bool "causal < total-seq" true (wait causal < wait total);
  List.iter
    (fun p ->
      check_bool
        (Repro_catocs.Config.ordering_name p.E.False_causality.ordering
        ^ " transit p99 finite")
        true
        (Float.is_finite p.E.False_causality.transit_p99_us))
    points

(* --- overhead --------------------------------------------------------------------- *)

let test_overhead_header_formula () =
  let points = E.Overhead.sweep ~sizes:[ 4; 16 ] () in
  List.iter
    (fun p ->
      let expected =
        match p.E.Overhead.ordering with
        | Repro_catocs.Config.Fifo -> 8.0
        | Repro_catocs.Config.Causal | Repro_catocs.Config.Total_sequencer ->
          8.0 +. (4.0 *. float_of_int p.E.Overhead.group_size)
        | Repro_catocs.Config.Total_lamport -> 16.0
      in
      Alcotest.(check (float 0.01))
        (Printf.sprintf "%s n=%d header bytes"
           (Repro_catocs.Config.ordering_name p.E.Overhead.ordering)
           p.E.Overhead.group_size)
        expected p.E.Overhead.header_bytes_per_msg)
    points

(* --- membership --------------------------------------------------------------------- *)

let test_membership_flush_works_and_costs () =
  let points = E.Membership.sweep ~sizes:[ 4; 8 ] () in
  List.iter
    (fun p ->
      check_bool "delivery still works after the change" true
        p.E.Membership.post_change_delivery_ok;
      check_bool "suppression happened" true (p.E.Membership.flush_duration_ms > 0.0);
      check_bool "flush messages counted" true
        (p.E.Membership.view_change_control_msgs > 0))
    points;
  match points with
  | [ small; big ] ->
    check_bool "bigger group, costlier flush" true
      (big.E.Membership.view_change_control_msgs
       > small.E.Membership.view_change_control_msgs)
  | _ -> Alcotest.fail "expected two points"

(* --- durability ---------------------------------------------------------------------- *)

let test_durability_gap_shape () =
  let points = E.Durability.sweep ~trials:10 () in
  let find scheme k =
    List.find
      (fun p -> p.E.Durability.scheme = scheme && p.E.Durability.k = k)
      points
  in
  let k0 = find "catocs cbcast" 0 in
  check_int "k=0: survivors never have it" 0 k0.E.Durability.survivors_have_update;
  check_int "k=0: sender always diverged" 10 k0.E.Durability.sender_diverged;
  let k1 = find "catocs cbcast" 1 in
  check_int "k=1: flush re-supplies everyone" 10 k1.E.Durability.survivors_have_update;
  check_int "k=1: no divergence" 0 k1.E.Durability.sender_diverged;
  List.iter
    (fun p -> check_int "atomicity never partial" 0 p.E.Durability.survivor_partial)
    points;
  let tpc = find "2pc (coordinator crash)" 0 in
  check_int "2pc: nothing applied" 0 tpc.E.Durability.survivors_have_update;
  check_int "2pc: no divergence either" 0 tpc.E.Durability.sender_diverged

(* --- piggyback ------------------------------------------------------------------ *)

let test_piggyback_tradeoff () =
  let points = E.Ablations.piggyback_sweep () in
  let find variant drop =
    List.find
      (fun p ->
        p.E.Ablations.variant = variant && p.E.Ablations.drop = drop)
      points
  in
  let delay0 = find "causal (delay)" 0.0 in
  let piggy0 = find "causal + history piggyback" 0.0 in
  check_bool "piggyback removes queue waits" true
    (piggy0.E.Ablations.mean_queue_wait_us < delay0.E.Ablations.mean_queue_wait_us
     || delay0.E.Ablations.mean_queue_wait_us = 0.0);
  check_bool "piggyback costs far more wire bytes" true
    (piggy0.E.Ablations.overhead_bytes_per_msg
     > 10.0 *. delay0.E.Ablations.overhead_bytes_per_msg);
  let delay_loss = find "causal (delay)" 0.05 in
  let piggy_loss = find "causal + history piggyback" 0.05 in
  check_bool "loss blocks plain causal on bare transport" true
    (delay_loss.E.Ablations.delivered < delay_loss.E.Ablations.expected);
  check_bool "piggyback masks most loss" true
    (piggy_loss.E.Ablations.delivered * 100
     >= piggy_loss.E.Ablations.expected * 95)

(* --- group-state ---------------------------------------------------------------- *)

let test_group_state_grows_linearly () =
  match E.Group_state.sweep ~readers:5 ~inquiries:[ 10; 40 ] () with
  | [ one_a; per_a; one_b; per_b ] ->
    check_int "one group: correct" 0 one_a.E.Group_state.misordered;
    check_int "per-inquiry: correct" 0 per_a.E.Group_state.misordered;
    check_bool "state grows with group count" true
      (per_b.E.Group_state.comm_state_bytes_per_process
       > 3 * per_a.E.Group_state.comm_state_bytes_per_process);
    check_bool "gossip grows with group count" true
      (per_b.E.Group_state.control_messages
       > 2 * per_a.E.Group_state.control_messages);
    check_bool "one-group state independent of inquiries" true
      (one_a.E.Group_state.comm_state_bytes_per_process
       = one_b.E.Group_state.comm_state_bytes_per_process)
  | _ -> Alcotest.fail "expected four points"

(* --- partitioning ------------------------------------------------------------- *)

let test_partitioning_tradeoff () =
  match E.Partitioning.sweep ~senders:12 ~partitions:3 () with
  | [ whole; split ] ->
    check_int "one group: no cross-group violations" 0
      whole.E.Partitioning.cross_group_violations;
    check_bool "partitioned: violations appear" true
      (split.E.Partitioning.cross_group_violations > 0);
    check_bool "ordinary members buffer less when partitioned" true
      (split.E.Partitioning.sender_peak_unstable_bytes
       < whole.E.Partitioning.sender_peak_unstable_bytes);
    check_bool "headers shrink with group size" true
      (split.E.Partitioning.header_bytes < whole.E.Partitioning.header_bytes);
    check_bool "the bridge keeps most of the cost" true
      (split.E.Partitioning.bridge_peak_unstable_bytes
       > split.E.Partitioning.sender_peak_unstable_bytes)
  | _ -> Alcotest.fail "expected two layouts"

(* --- diagrams ---------------------------------------------------------------------------- *)

let test_fig1_properties_hold () =
  let t = E.Diagrams.fig1_table () in
  List.iter
    (fun row ->
      match row with
      | [ prop; expected; observed ] ->
        if expected = "yes" then
          Alcotest.(check string) prop expected observed
      | _ -> Alcotest.fail "unexpected row shape")
    t.Table.rows

let contains ~needle haystack =
  let n = String.length haystack and m = String.length needle in
  let rec scan i = i + m <= n && (String.sub haystack i m = needle || scan (i + 1)) in
  scan 0

let test_fig2_fig3_diagrams_found () =
  let fig2 = E.Diagrams.fig2_hidden_channel () in
  check_bool "fig2 anomaly found" true (contains ~needle:"seed" fig2);
  check_bool "fig2 shows notifications" true (contains ~needle:"notif" fig2);
  let fig3 = E.Diagrams.fig3_external_channel () in
  check_bool "fig3 anomaly found" true (contains ~needle:"seed" fig3);
  check_bool "fig3 shows fire" true (contains ~needle:"FIRE" fig3)

(* --- registry ----------------------------------------------------------------------------- *)

let test_registry_complete () =
  let expected =
    [ "fig1-causal-order"; "fig2-hidden-channel"; "fig3-external-channel";
      "fig4-trading"; "netnews"; "false-causality"; "buffering-scaling";
      "membership-scaling"; "overhead"; "predicate-detection";
      "replicated-data"; "durability-gap"; "serialization"; "linearizability"; "real-time"; "drilling";
      "rpc-deadlock"; "gossip-ablation"; "distribution-ablation"; "partitioning"; "group-state"; "piggyback-ablation" ]
  in
  List.iter
    (fun id ->
      check_bool (id ^ " registered") true (E.Registry.find id <> None))
    expected;
  check_int "exactly these experiments" (List.length expected)
    (List.length E.Registry.all)

let test_registry_tables_have_rows () =
  (* run the cheap entries end to end; each must produce a non-empty table *)
  List.iter
    (fun id ->
      match E.Registry.find id with
      | Some entry ->
        List.iter
          (fun table ->
            check_bool (id ^ " has rows") true (List.length table.Table.rows > 0))
          (entry.E.Registry.run ())
      | None -> Alcotest.fail ("missing " ^ id))
    [ "fig1-causal-order"; "netnews"; "predicate-detection" ]

let () =
  Alcotest.run "repro_experiments"
    [
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "cells" `Quick test_table_cells;
          Alcotest.test_case "log slope" `Quick test_fit_log_slope;
        ] );
      ( "scaling",
        [
          Alcotest.test_case "system buffering superlinear" `Slow
            test_scaling_superlinear_system_buffering;
          Alcotest.test_case "load grows transit" `Slow
            test_scaling_load_grows_transit;
          Alcotest.test_case "reference impls agree" `Slow
            test_scaling_reference_impls_agree;
        ] );
      ( "false-causality",
        [
          Alcotest.test_case "ordering costs ranked" `Slow
            test_false_causality_ordering_costs;
          Alcotest.test_case "e5 trend at 30ms jitter" `Slow
            test_false_causality_e5_trend;
        ] );
      ( "overhead",
        [ Alcotest.test_case "header formula" `Slow test_overhead_header_formula ] );
      ( "membership",
        [
          Alcotest.test_case "flush works and costs" `Slow
            test_membership_flush_works_and_costs;
        ] );
      ( "durability",
        [ Alcotest.test_case "gap shape" `Slow test_durability_gap_shape ] );
      ( "piggyback",
        [ Alcotest.test_case "tradeoff" `Slow test_piggyback_tradeoff ] );
      ( "group-state",
        [ Alcotest.test_case "state grows with groups" `Slow
            test_group_state_grows_linearly ] );
      ( "partitioning",
        [ Alcotest.test_case "tradeoff" `Slow test_partitioning_tradeoff ] );
      ( "diagrams",
        [
          Alcotest.test_case "fig1 properties" `Quick test_fig1_properties_hold;
          Alcotest.test_case "fig2/fig3 found" `Slow test_fig2_fig3_diagrams_found;
        ] );
      ( "registry",
        [
          Alcotest.test_case "complete" `Quick test_registry_complete;
          Alcotest.test_case "tables have rows" `Slow test_registry_tables_have_rows;
        ] );
    ]
