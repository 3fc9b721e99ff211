(* The benchmark's delivery-log checker must convict each kind of bad log
   and pass a good one. Two senders (members 0 and 1), three members,
   two multicasts each; (1, 0) is sent after member 1 delivered (0, 0),
   so (0, 0) -> (1, 0) is a causal pair. *)

module C = Perfbench_check.Delivery_check

let planned = [| 2; 2 |]

let make ?(causal = true) ?(total = false) () =
  let t = C.create ~members:3 ~planned ~causal ~total in
  C.note_send t ~sender:0 ~seq:0;
  C.note_deliver t ~member:0 ~sender:0 ~seq:0;
  C.note_deliver t ~member:1 ~sender:0 ~seq:0;
  C.note_send t ~sender:1 ~seq:0;
  C.note_send t ~sender:0 ~seq:1;
  C.note_send t ~sender:1 ~seq:1;
  t

let deliver t member log =
  List.iter (fun (sender, seq) -> C.note_deliver t ~member ~sender ~seq) log

(* member 0 and 1 already delivered (0, 0) inside [make] *)
let good_rest = [ (1, 0); (0, 1); (1, 1) ]
let good_full = (0, 0) :: good_rest

let run ?causal ?total member2 =
  let t = make ?causal ?total () in
  deliver t 0 good_rest;
  deliver t 1 good_rest;
  deliver t 2 member2;
  C.finish t

let check_counts name (r : C.result) ~failed =
  Alcotest.(check int) (name ^ ": expected") 12 r.C.expected;
  Alcotest.(check int) (name ^ ": failed") failed r.C.failed

let test_clean () =
  let r = run good_full in
  check_counts "clean" r ~failed:0;
  Alcotest.(check int) "delivered" 12 r.C.delivered

let test_swapped_causal_pair () =
  let r = run [ (1, 0); (0, 0); (0, 1); (1, 1) ] in
  Alcotest.(check int) "causal" 1 r.C.causal;
  Alcotest.(check int) "fifo" 0 r.C.fifo;
  check_counts "swapped" r ~failed:1;
  (* without the causal check the same log looks fine *)
  let r = run ~causal:false [ (1, 0); (0, 0); (0, 1); (1, 1) ] in
  check_counts "swapped, causal off" r ~failed:0

let test_duplicate () =
  let r = run (good_full @ [ (0, 1) ]) in
  Alcotest.(check int) "duplicates" 1 r.C.duplicates;
  check_counts "duplicate" r ~failed:1

let test_missing () =
  let r = run [ (0, 0); (1, 0); (0, 1) ] in
  Alcotest.(check int) "missing" 1 r.C.missing;
  check_counts "missing" r ~failed:1

let test_fifo () =
  let r = run [ (0, 1); (0, 0); (1, 0); (1, 1) ] in
  Alcotest.(check int) "fifo" 1 r.C.fifo;
  Alcotest.(check int) "failed" 1 r.C.failed

let test_total_order () =
  (* (0, 1) and (1, 0) are concurrent: causal order allows either, total
     order requires every member to pick the same one *)
  let r = run ~total:true [ (0, 0); (0, 1); (1, 0); (1, 1) ] in
  Alcotest.(check int) "causal" 0 r.C.causal;
  Alcotest.(check int) "total order positions" 2 r.C.total_order;
  check_counts "total" r ~failed:2

let test_fingerprint () =
  let a = run good_full and b = run good_full in
  Alcotest.(check string) "same log, same fingerprint" a.C.fingerprint
    b.C.fingerprint;
  let c = run ~total:false [ (0, 0); (0, 1); (1, 0); (1, 1) ] in
  Alcotest.(check bool) "other order, other fingerprint" true
    (a.C.fingerprint <> c.C.fingerprint)

let () =
  Alcotest.run "delivery_check"
    [ ( "convictions",
        [ Alcotest.test_case "clean log passes" `Quick test_clean;
          Alcotest.test_case "swapped causal pair" `Quick
            test_swapped_causal_pair;
          Alcotest.test_case "duplicate delivery" `Quick test_duplicate;
          Alcotest.test_case "missing delivery" `Quick test_missing;
          Alcotest.test_case "fifo gap" `Quick test_fifo;
          Alcotest.test_case "total order divergence" `Quick
            test_total_order;
          Alcotest.test_case "fingerprint" `Quick test_fingerprint ] ) ]
