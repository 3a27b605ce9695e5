(** The read path shared by every LSM engine ({!Tree}, {!Policy_tree},
    LevelDB): an ordered list of sources, newest first. A lookup folds
    each record state it finds into the newer one and, with early
    termination, stops at the first base record or tombstone (§3.1.1); a
    scan merges the same sources. Engines supply only the source order,
    rebuilt when their structure changes, never per call. *)

(** Records [(key, entry, lsn)] in strictly increasing key order. *)
type pull = unit -> (string * Kv.Entry.t * int) option

type source = {
  probe : string -> Kv.Entry.t option;  (** point probe *)
  version : string -> int option;  (** newest LSN stored for the key *)
  open_at : string -> pull;  (** records with key >= the argument *)
}

(** Turns a checksum failure into the engine's typed error. A guard may
    act only on the exception its argument raises: point probes run the
    read outside the guard and, only when it raises, re-raise inside it
    (no closure per probe). *)
type guard = { guard : 'a. (unit -> 'a) -> 'a }

val unguarded : guard

(** A memtable (C0, C0'): no I/O. *)
val memtable : Memtable.t -> source

(** Snowshovel's shadow table: records merge1 consumed but has not yet
    committed, with their newest LSN. *)
val shadow : (Kv.Entry.t * int) Memtable.Skiplist.t -> source

(** An on-disk component; every read's exception passes the guard.
    Probes ask the Bloom filter first; the version probe skips the
    component on the filter alone. *)
val component : guard -> Component.t -> source

(** [chain opens] concatenates key-disjoint streams given in key order,
    opening each when the one before it ends. *)
val chain : (unit -> pull) list -> pull

type t

(** Without [early_termination] a lookup visits every source (the
    §3.1.1 ablation). *)
val make :
  resolver:Kv.Entry.resolver -> early_termination:bool -> source list -> t

(** The key's visible value, deltas resolved. *)
val get : t -> string -> string option

(** The first LSN a source reports for the key, newest first; 0 if none. *)
val version : t -> string -> int

(** [read_modify_write t key f ~write] calls [write key (f (get t key))]. *)
val read_modify_write :
  t -> string -> (string option -> string) -> write:(string -> string -> unit) ->
  unit

(** Calls [write key value] only when the key has no visible value;
    returns whether it did. *)
val insert_if_absent :
  t -> string -> string -> write:(string -> string -> unit) -> bool

(** A scan over the sources as they were when it opened. *)
type cursor

(** Opens every source at the smallest key >= [from], oldest first: each
    on-disk iterator reads its first page, deepest component first. *)
val cursor : t -> from:string -> cursor

(** The next live record, deltas resolved, tombstones dropped. *)
val cursor_next : cursor -> (string * string) option

(** Up to [n] live records with key >= [start]. *)
val scan : t -> string -> int -> (string * string) list
