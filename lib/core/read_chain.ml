(* The read path every LSM engine shares (§3.1.1): record states are
   visited newest-first, deltas fold into the newer state, and a lookup
   stops at the first base record or tombstone; scans merge the same
   sources in the same order. An engine supplies only the ordered source
   list, rebuilt whenever its structure changes. *)

type pull = unit -> (string * Kv.Entry.t * int) option

type source = {
  probe : string -> Kv.Entry.t option;
  version : string -> int option;
  open_at : string -> pull;
}

type guard = { guard : 'a. (unit -> 'a) -> 'a }

let unguarded = { guard = (fun f -> f ()) }

let memtable mem =
  {
    probe = Memtable.get mem;
    version = Memtable.newest_lsn mem;
    open_at =
      (fun from ->
        let c = Memtable.cursor mem in
        Memtable.seek c from;
        fun () ->
          match Memtable.peek c with
          | Some (k, _, _) as r ->
              Memtable.seek_after c k;
              r
          | None -> None);
  }

let shadow sl =
  {
    probe = (fun key -> Option.map fst (Memtable.Skiplist.find sl key));
    version = (fun key -> Option.map snd (Memtable.Skiplist.find sl key));
    open_at =
      (fun from ->
        let c = Memtable.Skiplist.cursor sl in
        Memtable.Skiplist.seek c from;
        fun () ->
          match Memtable.Skiplist.peek c with
          | Some (k, (e, lsn)) ->
              Memtable.Skiplist.seek_after c k;
              Some (k, e, lsn)
          | None -> None);
  }

(* Run [read c key] for its guard without allocating a thunk per call:
   a guard only translates the exception a read raises, so the read runs
   outside it and only a raised exception is handed to the guard, to be
   re-raised inside it. *)
let guarded { guard } read c key =
  match read c key with
  | v -> v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      guard (fun () -> Printexc.raise_with_backtrace e bt)

let sst_version c key =
  if not (Component.maybe_contains c key) then None
  else Option.map snd (Sstable.Reader.get_with_lsn c.Component.sst key)

let component ({ guard } as g) c =
  {
    probe = (fun key -> guarded g Component.get c key);
    version = (fun key -> guarded g sst_version c key);
    open_at =
      (fun from ->
        guard (fun () ->
            let it = Component.iterator ~from c in
            fun () -> guard (fun () -> Sstable.Reader.iter_next_full it)));
  }

let chain opens =
  let remaining = ref opens in
  let cur = ref None in
  let rec next () =
    match !cur with
    | Some pull -> (
        match pull () with
        | Some _ as r -> r
        | None ->
            cur := None;
            next ())
    | None -> (
        match !remaining with
        | [] -> None
        | open_ :: rest ->
            remaining := rest;
            cur := Some (open_ ());
            next ())
  in
  next

type t = {
  resolver : Kv.Entry.resolver;
  early_termination : bool;
  sources : source list;
}

let make ~resolver ~early_termination sources =
  { resolver; early_termination; sources }

let rec visit t key acc = function
  | [] -> acc
  | src :: rest -> (
      match src.probe key with
      | None -> visit t key acc rest
      | Some e -> (
          let e =
            match acc with
            | None -> e
            | Some newer -> Kv.Entry.merge t.resolver ~newer ~older:e
          in
          match e with
          | (Kv.Entry.Base _ | Kv.Entry.Tombstone) when t.early_termination ->
              Some e
          | _ -> visit t key (Some e) rest))

let lookup t key = visit t key None t.sources

let interpret t = function
  | None | Some Kv.Entry.Tombstone -> None
  | Some (Kv.Entry.Base v) -> Some v
  | Some (Kv.Entry.Delta ds) ->
      (* no base record anywhere below: resolve against nothing *)
      Kv.Entry.resolve t.resolver ~base:None ds

let get t key = interpret t (lookup t key)

let version t key =
  let rec first = function
    | [] -> 0
    | src :: rest -> (
        match src.version key with Some v -> v | None -> first rest)
  in
  first t.sources

let read_modify_write t key f ~write = write key (f (get t key))

let insert_if_absent t key value ~write =
  match get t key with
  | Some _ -> false
  | None ->
      write key value;
      true

type cursor = Sstable.Merge_iter.t

let cursor t ~from =
  (* Sources open oldest first, so each on-disk iterator positions (reads
     its first page) deepest level first; priority 0 is the newest. *)
  let rec open_all i = function
    | [] -> []
    | src :: rest ->
        let older = open_all (i + 1) rest in
        (i, src.open_at from) :: older
  in
  Sstable.Merge_iter.create ~resolver:t.resolver ~drop_tombstones:true
    (open_all 0 t.sources)

let rec cursor_next c =
  match Sstable.Merge_iter.next c with
  | None -> None
  | Some (key, Kv.Entry.Base v, _) -> Some (key, v)
  | Some (_, (Kv.Entry.Delta _ | Kv.Entry.Tombstone), _) ->
      (* drop_tombstones output is Base-only; defensive *)
      cursor_next c

let scan t start n =
  let c = cursor t ~from:start in
  let rec collect acc k =
    if k = 0 then List.rev acc
    else
      match cursor_next c with
      | None -> List.rev acc
      | Some row -> collect (row :: acc) (k - 1)
  in
  collect [] n
