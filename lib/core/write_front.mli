(** The memtable + WAL write front shared by {!Tree} and {!Policy_tree}.
    A write runs its engine's pacing inside one window on the store's
    simulated clock, with merge work charged to stall causes that tile
    the window; it is then logged as one WAL record, timed outside the
    window, and applied to the memtable under that record's LSN. *)

(** How the last write's pacing time divided across causes:
    [sb_merge1_us + sb_merge2_us + sb_hard_us = sb_total_us] within float
    rounding; [sb_wal_us] is WAL append time, outside the window. *)
type stall_breakdown = {
  sb_merge1_us : float;
  sb_merge2_us : float;
  sb_hard_us : float;
  sb_wal_us : float;
  sb_total_us : float;
}

(** The per-write scratch behind {!stall_breakdown}. *)
type t

val create : Pagestore.Store.t -> t
val last : t -> stall_breakdown

(** [f] fires once per pacing window with its final causes and
    [sb_wal_us = 0]. One observer at a time. *)
val on_stall : t -> (stall_breakdown -> unit) -> unit

(** Charges merge work to its cause, or to the hard bucket inside
    {!hard_stall}. *)
val charge : t -> [ `Merge1 | `Merge2 ] -> float -> unit

val charge_hard : t -> float -> unit

(** Runs [f] as a hard-stall wait: the write is blocked on space. *)
val hard_stall : t -> (unit -> 'a) -> 'a

(** [pace t run engine ~write_bytes] resets the scratch, runs
    [run engine ~write_bytes] as the pacing window, records its length
    and notifies the observer. *)
val pace : t -> ('e -> write_bytes:int -> unit) -> 'e -> write_bytes:int -> unit

(** [append t mem ops] logs [ops] as one WAL record and applies them to
    [mem] in order under its LSN; returns the append time, which also
    becomes the write's [sb_wal_us]. *)
val append : t -> Memtable.t -> (string * Kv.Entry.t) list -> float

(** Key plus payload bytes: the user bytes a write accepts. *)
val payload_bytes : (string * Kv.Entry.t) list -> int

(** The WAL payload: one record per atomic batch. *)
val encode_ops : (string * Kv.Entry.t) list -> string

val decode_ops : string -> (string * Kv.Entry.t) list
