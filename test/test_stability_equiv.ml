(* Differential property tests: the incremental stability tracker must
   release exactly the same (msg_id, release-time) sets as the reference
   full-rescan implementation on any delivery-legal interleaving of sends,
   deliveries (with and without the paired self-observation), duplicate
   notes, and gossip observations.

   The driver simulates an n-member group honestly — every generated
   delivery satisfies the causal delivery condition against the receiving
   member's clock — and runs member 0's tracker through both
   implementations in lockstep. The unstable buffer contents are compared
   after every operation, so a divergence in any release instant shows up
   at the first operation where the buffers differ; the accumulated
   stability-lag statistics (count and sum of now - sent_at over all
   releases) are compared at the end as a direct check on release times. *)

module S = Repro_catocs.Stability
module Wire = Repro_catocs.Wire
module Metrics = Repro_catocs.Metrics
module Registry = Repro_obs.Registry
module Histo = Repro_obs.Histo

type op =
  | Send of int  (* member multicasts (and self-delivers immediately) *)
  | Deliver of int * int * bool
      (* member, pick among its currently legal messages, and whether the
         note is followed by the stack's usual self-observation (false
         exercises dirty-column accumulation across several notes) *)
  | Gossip of int  (* tracker observes the member's delivered clock *)
  | Renote  (* duplicate note of the last message member 0 buffered *)

type msg = { data : int Wire.data; delivered : bool array }

let pp_op = function
  | Send s -> Printf.sprintf "Send %d" s
  | Deliver (m, p, o) -> Printf.sprintf "Deliver (%d, %d, %b)" m p o
  | Gossip m -> Printf.sprintf "Gossip %d" m
  | Renote -> "Renote"

let show_ids l = String.concat "," (List.map string_of_int l)

let run_equiv n ops =
  let metrics_i = Metrics.create () and metrics_r = Metrics.create () in
  let registry_i = Registry.create () and registry_r = Registry.create () in
  let inc =
    S.Incremental.create ~registry:registry_i ~group_size:n ~metrics:metrics_i
      ~graph:None ()
  in
  let re =
    S.Reference.create ~registry:registry_r ~group_size:n ~metrics:metrics_r
      ~graph:None ()
  in
  let dvc = Array.init n (fun _ -> Vector_clock.create n) in
  let in_flight = ref [] in
  let next_id = ref 0 in
  let now = ref 0 in
  let last_noted = ref None in
  let tick () =
    incr now;
    Sim_time.us (!now * 100)
  in
  let ids l = List.map (fun (d : int Wire.data) -> d.Wire.msg_id) l in
  let check ctx =
    let li = ids (S.Incremental.unstable inc) in
    let lr = ids (S.Reference.unstable re) in
    if li <> lr then
      QCheck.Test.fail_reportf "%s: unstable mismatch inc=[%s] ref=[%s]" ctx
        (show_ids li) (show_ids lr);
    if S.Incremental.unstable_count inc <> S.Reference.unstable_count re then
      QCheck.Test.fail_reportf "%s: count mismatch inc=%d ref=%d" ctx
        (S.Incremental.unstable_count inc)
        (S.Reference.unstable_count re);
    if S.Incremental.unstable_bytes inc <> S.Reference.unstable_bytes re then
      QCheck.Test.fail_reportf "%s: bytes mismatch inc=%d ref=%d" ctx
        (S.Incremental.unstable_bytes inc)
        (S.Reference.unstable_bytes re)
  in
  let note data =
    S.Incremental.note_sent_or_delivered inc data;
    S.Reference.note_sent_or_delivered re data;
    last_noted := Some data
  in
  let self_observe at =
    S.Incremental.self_observe inc ~rank:0 ~now:at dvc.(0);
    S.Reference.self_observe re ~rank:0 ~now:at dvc.(0)
  in
  let apply op =
    match op with
    | Send s ->
      let at = tick () in
      let vt = Vector_clock.copy_tick dvc.(s) s in
      incr next_id;
      let data =
        { Wire.msg_id = !next_id; trace_id = !next_id; origin = s;
          sender_rank = s; view_id = 0;
          vt; meta = Wire.Causal_meta; payload = !next_id; payload_bytes = 8;
          sent_at = at; piggyback = [] }
      in
      let delivered = Array.make n false in
      delivered.(s) <- true;
      in_flight := { data; delivered } :: !in_flight;
      (* the sender delivers its own multicast immediately *)
      Vector_clock.merge_into dvc.(s) vt;
      if s = 0 then begin
        note data;
        self_observe at
      end
    | Deliver (m, pick, observe) ->
      let legal =
        List.filter
          (fun msg ->
            (not msg.delivered.(m))
            && Vector_clock.deliverable
                 ~sender:msg.data.Wire.sender_rank ~msg:msg.data.Wire.vt
                 ~local:dvc.(m))
          !in_flight
      in
      if legal <> [] then begin
        let at = tick () in
        let msg = List.nth legal (pick mod List.length legal) in
        msg.delivered.(m) <- true;
        Vector_clock.merge_into dvc.(m) msg.data.Wire.vt;
        if m = 0 then begin
          note msg.data;
          if observe then self_observe at
        end
      end
    | Gossip m ->
      let at = tick () in
      S.Incremental.observe_vc inc ~rank:m ~now:at dvc.(m);
      S.Reference.observe_vc re ~rank:m ~now:at dvc.(m)
    | Renote -> (
      match !last_noted with
      | Some data
        when List.mem data.Wire.msg_id (ids (S.Reference.unstable re)) ->
        note data
      | Some _ | None -> ())
  in
  List.iter
    (fun op ->
      apply op;
      check (pp_op op))
    ops;
  (* final catch-up gossip: several rounds so cross-member knowledge
     propagates and late releases fire in both implementations *)
  for _ = 1 to 2 do
    for m = 0 to n - 1 do
      apply (Gossip m);
      check "catch-up gossip"
    done
  done;
  let lag r =
    Registry.histogram r ~layer:Repro_obs.Event.Stability
      ~name:"stability_lag_us" ()
  in
  let lag_i = lag registry_i and lag_r = lag registry_r in
  if Histo.count lag_i <> Histo.count lag_r then
    QCheck.Test.fail_reportf "release count mismatch inc=%d ref=%d"
      (Histo.count lag_i) (Histo.count lag_r);
  (* lags are integral microseconds, so the sums are exact in float and
     equal iff the (msg, release-time) multisets are *)
  if Histo.sum lag_i <> Histo.sum lag_r then
    QCheck.Test.fail_reportf "release-time sum mismatch inc=%.0f ref=%.0f"
      (Histo.sum lag_i) (Histo.sum lag_r);
  true

let gen_ops n =
  QCheck.Gen.(
    list_size (int_range 30 200)
      (frequency
         [ (4, map (fun s -> Send s) (int_range 0 (n - 1)));
           (6,
            map3
              (fun m p o -> Deliver (m, p, o))
              (int_range 0 (n - 1))
              (int_bound 1000) bool);
           (3, map (fun m -> Gossip m) (int_range 0 (n - 1)));
           (1, return Renote) ]))

let gen_case =
  QCheck.Gen.(int_range 1 6 >>= fun n -> map (fun ops -> (n, ops)) (gen_ops n))

let prop_equiv =
  QCheck.Test.make
    ~name:"incremental = reference on random delivery-legal interleavings"
    ~count:300
    (QCheck.make
       ~print:(fun (n, ops) ->
         Printf.sprintf "n=%d [%s]" n
           (String.concat "; " (List.map pp_op ops)))
       gen_case)
    (fun (n, ops) -> run_equiv n ops)

(* Directed: full dissemination drains both buffers completely, at the same
   observation instants. *)
let test_directed_full_drain () =
  let ok =
    run_equiv 3
      [ Send 0; Send 1; Send 2;
        Deliver (0, 0, true); Deliver (0, 0, true);
        Deliver (1, 0, true); Deliver (1, 0, true);
        Deliver (2, 0, true); Deliver (2, 0, true);
        Gossip 1; Gossip 2 ]
  in
  Alcotest.(check bool) "directed full drain equivalent" true ok

(* Directed: a single-member group stabilises its own sends at the paired
   self-observation. *)
let test_directed_singleton () =
  let ok = run_equiv 1 [ Send 0; Send 0; Send 0 ] in
  Alcotest.(check bool) "singleton group equivalent" true ok

(* Directed: deliveries whose self-observation is deferred accumulate dirty
   columns that must all drain at the next observation. *)
let test_directed_deferred_observe () =
  let ok =
    run_equiv 2
      [ Send 1; Send 1; Send 1;
        Deliver (0, 0, false); Deliver (0, 0, false); Deliver (0, 0, false);
        Gossip 0; Gossip 1 ]
  in
  Alcotest.(check bool) "deferred observation equivalent" true ok

let () =
  Alcotest.run "stability_equiv"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest [ prop_equiv ] );
      ( "directed",
        [
          Alcotest.test_case "full drain" `Quick test_directed_full_drain;
          Alcotest.test_case "singleton group" `Quick test_directed_singleton;
          Alcotest.test_case "deferred observation" `Quick
            test_directed_deferred_observe;
        ] );
    ]
