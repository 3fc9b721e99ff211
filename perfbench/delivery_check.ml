type member = {
  prefix : int array;  (* per sender: length of the delivered seq prefix *)
  seen : Bytes.t array;  (* per sender, per seq: delivered flag *)
  order : int array;  (* delivery sequence, kept when [total] *)
  mutable count : int;
  mutable hash : int;
  mutable duplicates : int;
  mutable fifo : int;
  mutable causal : int;
  mutable unknown : int;
}

type t = {
  planned : int array;
  members : member array;
  deps : int array array array option;  (* sender -> seq -> prefix copy *)
  total : bool;
}

type result = {
  expected : int;
  delivered : int;
  duplicates : int;
  fifo : int;
  causal : int;
  unknown : int;
  missing : int;
  total_order : int;
  failed : int;
  fingerprint : string;
}

let create ~members ~planned ~causal ~total =
  let senders = Array.length planned in
  let per_member = Array.fold_left ( + ) 0 planned in
  let make_member _ =
    { prefix = Array.make senders 0;
      seen = Array.map (fun p -> Bytes.make p '\000') planned;
      order = (if total then Array.make per_member 0 else [||]);
      count = 0; hash = 0; duplicates = 0; fifo = 0; causal = 0;
      unknown = 0 }
  in
  { planned;
    members = Array.init members make_member;
    deps =
      (if causal then Some (Array.map (fun p -> Array.make p [||]) planned)
       else None);
    total }

let note_send t ~sender ~seq =
  match t.deps with
  | Some deps -> deps.(sender).(seq) <- Array.copy t.members.(sender).prefix
  | None -> ()

(* FNV-1a style mixing over ints; 62-bit so it stays an immediate *)
let mix h x = (h lxor x) * 0x100000001b3 land 0x3fff_ffff_ffff_ffff

let code ~sender ~seq = (sender lsl 20) lor seq

let note_deliver t ~member ~sender ~seq =
  let m = t.members.(member) in
  let c = code ~sender ~seq in
  m.hash <- mix m.hash c;
  if t.total && m.count < Array.length m.order then m.order.(m.count) <- c;
  m.count <- m.count + 1;
  if sender < 0 || sender >= Array.length t.planned || seq < 0
     || seq >= t.planned.(sender)
  then m.unknown <- m.unknown + 1
  else if Bytes.get m.seen.(sender) seq <> '\000' then
    m.duplicates <- m.duplicates + 1
  else begin
    Bytes.set m.seen.(sender) seq '\001';
    if seq <> m.prefix.(sender) then m.fifo <- m.fifo + 1;
    (match t.deps with
     | Some deps ->
       let d = deps.(sender).(seq) in
       let violated = ref false in
       Array.iteri
         (fun j need ->
           if j <> sender && m.prefix.(j) < need then violated := true)
         d;
       if !violated then m.causal <- m.causal + 1
     | None -> ());
    let seen = m.seen.(sender) in
    let p = ref m.prefix.(sender) in
    while !p < Bytes.length seen && Bytes.get seen !p <> '\000' do
      incr p
    done;
    m.prefix.(sender) <- !p
  end

let finish t =
  let sum f = Array.fold_left (fun acc m -> acc + f m) 0 t.members in
  let missing =
    sum (fun m ->
        Array.fold_left
          (fun acc seen ->
            let n = ref 0 in
            Bytes.iter (fun b -> if b = '\000' then incr n) seen;
            acc + !n)
          0 m.seen)
  in
  let total_order =
    if not t.total || Array.length t.members = 0 then 0
    else begin
      let reference = t.members.(0) in
      sum (fun m ->
          let n = min m.count reference.count in
          let n = min n (Array.length m.order) in
          let diff = ref 0 in
          for i = 0 to n - 1 do
            if m.order.(i) <> reference.order.(i) then incr diff
          done;
          !diff)
    end
  in
  let duplicates = sum (fun m -> m.duplicates)
  and fifo = sum (fun m -> m.fifo)
  and causal = sum (fun m -> m.causal)
  and unknown = sum (fun m -> m.unknown) in
  let digest =
    Array.fold_left (fun h m -> mix (mix h m.hash) m.count) 0 t.members
  in
  { expected = Array.fold_left ( + ) 0 t.planned * Array.length t.members;
    delivered = sum (fun m -> m.count);
    duplicates; fifo; causal; unknown; missing; total_order;
    failed = duplicates + fifo + causal + unknown + missing + total_order;
    fingerprint = Printf.sprintf "%016x" digest }
