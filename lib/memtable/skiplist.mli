(** Deterministic skip list: the ordered map behind C0.

    Supports the cheap successor queries the snowshovel cursor needs
    ("smallest key >= cursor", §4.2) in O(log n), and point lookups in
    one hash probe (a private key index kept in step with the list).
    Levels are drawn from the repository PRNG, so runs are reproducible.
    Not thread-safe. *)

type 'a t

val create : ?seed:int -> unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

(** [find t key] is the value bound to [key]: one hash probe, no
    descent. *)
val find : 'a t -> string -> 'a option

(** [update t key f] inserts or modifies: [f None] for a fresh key (one
    descent), [f (Some old)] to replace (one hash probe). Returns the
    previous value. [f] must not touch [t]: a fresh key's predecessors
    wait in a per-list scratch vector while [f None] runs. *)
val update : 'a t -> string -> ('a option -> 'a) -> 'a option

(** [set t key v] binds unconditionally. *)
val set : 'a t -> string -> 'a -> unit

(** [remove t key] deletes the binding, returning the removed value. *)
val remove : 'a t -> string -> 'a option

val min_binding : 'a t -> (string * 'a) option

(** [succ_geq t key] is the smallest binding with key >= [key]. *)
val succ_geq : 'a t -> string -> (string * 'a) option

(** [iter_from t key f] applies [f] to bindings with key >= [key], in
    order, while [f] returns [true]. *)
val iter_from : 'a t -> string -> (string -> 'a -> bool) -> unit

val iter : 'a t -> (string -> 'a -> unit) -> unit
val fold : 'a t -> 'b -> ('b -> string -> 'a -> 'b) -> 'b
val to_list : 'a t -> (string * 'a) list

(** {1 Cursors}

    A cursor walks the list in key order with a finger: per level, a node
    at or before the last sought key. Stepping to the next binding then
    costs about one key comparison instead of a descent from the head.

    Seek keys must not decrease: each {!seek}, {!seek_after} or
    {!insert} names a key at or past the cursor's last one ({!seek} [k]
    comes before {!seek_after} [k]). Inserts made by any means never
    invalidate a cursor. Every unlink ({!remove}, or {!take} through any
    cursor) bumps a per-list removal counter; a cursor that has missed a
    removal re-descends from the head on its next use, while the cursor
    that took the binding stays armed. *)

type 'a cursor

(** [cursor t] is a cursor before the first binding. *)
val cursor : 'a t -> 'a cursor

(** [seek c k]: the next {!peek} returns the smallest binding with key
    >= [k]. *)
val seek : 'a cursor -> string -> unit

(** [seek_after c k]: the next {!peek} returns the smallest binding with
    key > [k]. Stepping past the key {!peek} just returned is the cheap
    case. *)
val seek_after : 'a cursor -> string -> unit

(** [peek c] is the smallest binding past the last sought key. *)
val peek : 'a cursor -> (string * 'a) option

(** [take c] unlinks and returns the binding {!peek} would return, using
    the finger as the update vector: no descent. *)
val take : 'a cursor -> (string * 'a) option

(** [insert c k v] binds [k] to [v], linking a fresh node at the finger,
    and leaves the cursor past [k] (as {!seek_after} [k]). *)
val insert : 'a cursor -> string -> 'a -> unit
