(* The write front {!Tree} and {!Policy_tree} share: one pacing window
   per write, timed on the store's simulated clock and split across
   stall causes, then one timed WAL append whose operations land in the
   memtable under the record's LSN. Engines differ only in the pacing
   function they run inside the window. *)

type stall_breakdown = {
  sb_merge1_us : float;
  sb_merge2_us : float;
  sb_hard_us : float;
  sb_wal_us : float;
  sb_total_us : float;
}

(* All-float, so the fields are stored unboxed: charging allocates
   nothing. *)
type scratch = {
  mutable merge1_us : float;
  mutable merge2_us : float;
  mutable hard_us : float;
  mutable wal_us : float;
  mutable total_us : float;
}

type t = {
  store : Pagestore.Store.t;
  sc : scratch;
  mutable in_hard : bool;
  mutable observer : (stall_breakdown -> unit) option;
}

let create store =
  {
    store;
    sc =
      { merge1_us = 0.0; merge2_us = 0.0; hard_us = 0.0; wal_us = 0.0;
        total_us = 0.0 };
    in_hard = false;
    observer = None;
  }

let last { sc; _ } =
  {
    sb_merge1_us = sc.merge1_us;
    sb_merge2_us = sc.merge2_us;
    sb_hard_us = sc.hard_us;
    sb_wal_us = sc.wal_us;
    sb_total_us = sc.total_us;
  }

let on_stall t f = t.observer <- Some f

(* Work done while [in_hard] is a hard-stall wait whichever merge
   performs it: the write is blocked on space, not electively pacing. *)
let charge t cause dt =
  let sc = t.sc in
  if t.in_hard then sc.hard_us <- sc.hard_us +. dt
  else
    match cause with
    | `Merge1 -> sc.merge1_us <- sc.merge1_us +. dt
    | `Merge2 -> sc.merge2_us <- sc.merge2_us +. dt

let charge_hard t dt = t.sc.hard_us <- t.sc.hard_us +. dt

let hard_stall t f =
  let was = t.in_hard in
  t.in_hard <- true;
  Fun.protect ~finally:(fun () -> t.in_hard <- was) f

let pace t run engine ~write_bytes =
  let sc = t.sc in
  sc.merge1_us <- 0.0;
  sc.merge2_us <- 0.0;
  sc.hard_us <- 0.0;
  sc.wal_us <- 0.0;
  sc.total_us <- 0.0;
  let t0 = Pagestore.Store.now_us t.store in
  run engine ~write_bytes;
  sc.total_us <- Pagestore.Store.now_us t.store -. t0;
  match t.observer with
  | None -> ()
  | Some f -> f { (last t) with sb_wal_us = 0.0 }

(* {1 Log records}

   One log record carries an atomic batch of operations (usually a
   single one): replay applies a record's operations together, which is
   what makes a batch all-or-nothing across crashes — the ACID building
   block §4.4.2 attributes to the logical log. *)

let encode_ops ops =
  let buf = Buffer.create 64 in
  Repro_util.Varint.write buf (List.length ops);
  List.iter
    (fun (key, entry) ->
      Repro_util.Varint.write buf (String.length key);
      Buffer.add_string buf key;
      Kv.Entry.encode buf entry)
    ops;
  Buffer.contents buf

let decode_ops s =
  let count, pos = Repro_util.Varint.read s 0 in
  let pos = ref pos in
  let rec go n acc =
    if n = 0 then List.rev acc
    else begin
      let klen, p = Repro_util.Varint.read s !pos in
      let key = String.sub s p klen in
      let entry, p = Kv.Entry.decode s (p + klen) in
      pos := p;
      go (n - 1) ((key, entry) :: acc)
    end
  in
  go count []

let payload_bytes ops =
  List.fold_left
    (fun a (k, e) -> a + String.length k + Kv.Entry.payload_bytes e)
    0 ops

let append t mem ops =
  let t0 = Pagestore.Store.now_us t.store in
  let lsn = Pagestore.Wal.append (Pagestore.Store.wal t.store) (encode_ops ops) in
  let dt = Pagestore.Store.now_us t.store -. t0 in
  t.sc.wal_us <- t.sc.wal_us +. dt;
  List.iter (fun (key, entry) -> Memtable.write mem ~lsn key entry) ops;
  dt
