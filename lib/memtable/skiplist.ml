(** Deterministic skip list: the ordered map behind C0.

    The in-memory tree must support efficient ordered scans and cheap
    successor queries (§2.3.1); the snowshovel cursor (§4.2) additionally
    needs "smallest key >= cursor" in O(log n). A skip list provides all of
    these with simple single-threaded mutation. Levels are drawn from the
    repository PRNG, so runs are reproducible.

    Forward pointers are unboxed: every level ends at a per-list [nil]
    sentinel node instead of [None], so the descent compares pointers
    ([!=]) rather than destructuring an [option] per hop — no [Some]
    allocation at insert, one less indirection on the hot comparison
    path.

    A {!cursor} walks the list in key order with a finger: per level, a
    node at or before the last sought key. The snowshovel's next record
    is then usually one comparison away, instead of one descent from the
    head per peek, per take and per shadow insert. *)

let max_level = 20
let branching = 4 (* promote with probability 1/4 *)

type 'a node = {
  key : string; (* "" for the head and nil sentinels *)
  hash : int; (* FNV-1a of [key]: the index slot's home *)
  mutable value : 'a;
  forward : 'a node array; (* physically [nil] past the last node *)
}

type 'a t = {
  head : 'a node;
  nil : 'a node; (* unique per list; compared with [==] only *)
  (* Key index for point lookups: open addressing with linear probing
     over a power-of-two table kept at most half full; [nil] marks an
     empty slot. Nodes carry their hash, so a probe compares ints before
     strings and growth never rehashes a key. *)
  mutable slots : 'a node array;
  prng : Repro_util.Prng.t;
  mutable level : int; (* highest level in use, >= 1 *)
  mutable length : int;
  scratch : 'a node array; (* update vector for [update] and [remove] *)
  mutable removals : int; (* bumped by every unlink: fingers go stale *)
}

let create ?(seed = 42) () =
  let nil = { key = ""; hash = 0; value = Obj.magic 0; forward = [||] } in
  let head =
    { key = ""; hash = 0; value = Obj.magic 0; forward = Array.make max_level nil }
  in
  {
    head;
    nil;
    slots = Array.make 64 nil;
    prng = Repro_util.Prng.of_int seed;
    level = 1;
    length = 0;
    scratch = Array.make max_level head;
    removals = 0;
  }

let length t = t.length

let is_empty t = t.length = 0

let random_level t =
  let rec go lvl =
    if lvl < max_level && Repro_util.Prng.int t.prng branching = 0 then
      go (lvl + 1)
    else lvl
  in
  go 1

(* Rightmost node whose key < [key], starting the walk at [from] on level
   [lvl]. *)
let rec advance t node lvl key =
  let nxt = node.forward.(lvl) in
  if nxt != t.nil && String.compare nxt.key key < 0 then advance t nxt lvl key
  else node

(* Walk down from the top level, collecting the rightmost node < key at
   each level into [update]. *)
let find_predecessors t key update =
  let x = ref t.head in
  for lvl = t.level - 1 downto 0 do
    x := advance t !x lvl key;
    update.(lvl) <- !x
  done;
  !x

(* Descend without recording predecessors (successor queries). *)
let find_floor t key =
  let x = ref t.head in
  for lvl = t.level - 1 downto 0 do
    x := advance t !x lvl key
  done;
  !x

(* {1 The key index} *)

let next_slot t i = (i + 1) land (Array.length t.slots - 1)
let home t h = h land (Array.length t.slots - 1)

(* The slot holding [key] (hash [h]), or the empty slot that ends its
   probe run: where the key would go. *)
let rec probe t h key i =
  let n = t.slots.(i) in
  if n == t.nil || (n.hash = h && String.equal n.key key) then i
  else probe t h key (next_slot t i)

let rec empty_from t i =
  if t.slots.(i) == t.nil then i else empty_from t (next_slot t i)

let rec slot_of_node t n i =
  if t.slots.(i) == n then i else slot_of_node t n (next_slot t i)

(* Put [n] in the first empty slot of its probe run. *)
let place t n = t.slots.(empty_from t (home t n.hash)) <- n

(* Double the table, re-placing every node by its stored hash. *)
let grow t =
  let old = t.slots in
  t.slots <- Array.make (2 * Array.length old) t.nil;
  Array.iter (fun n -> if n != t.nil then place t n) old

(* Re-place every entry of the probe run starting at [i]. *)
let rec settle t i =
  let m = t.slots.(i) in
  if m != t.nil then begin
    t.slots.(i) <- t.nil;
    place t m;
    settle t (next_slot t i)
  end

(* Remove node [n] from the index. Linear probing needs no tombstones:
   the entries after the hole re-place themselves up to the end of the
   run, so every key stays reachable from its home slot. *)
let unindex t n =
  let i = slot_of_node t n (home t n.hash) in
  t.slots.(i) <- t.nil;
  settle t (next_slot t i)

(** [find t key] returns the stored value, if any: one hash probe. *)
let find t key =
  if t.length = 0 then None
  else begin
    let h = Repro_util.Fnv1a.hash key in
    let n = t.slots.(probe t h key (home t h)) in
    if n == t.nil then None else Some n.value
  end

(* Link a fresh [node] of [lvl] levels after [pred.(l)] on each level,
   and index it in slot [i] (from [probe]). *)
let link t pred node lvl i =
  for l = 0 to lvl - 1 do
    node.forward.(l) <- pred.(l).forward.(l);
    pred.(l).forward.(l) <- node
  done;
  t.slots.(i) <- node;
  t.length <- t.length + 1;
  if 2 * t.length > Array.length t.slots then grow t

(* Draw a level for a fresh node, raising the list's level (with [head]
   as the predecessor on the new levels) when it exceeds it. *)
let fresh_level t pred =
  let lvl = random_level t in
  if lvl > t.level then begin
    for l = t.level to lvl - 1 do
      pred.(l) <- t.head
    done;
    t.level <- lvl
  end;
  lvl

(* Unlink [n] from the levels and the index, given its predecessor on
   every level it occupies. *)
let unlink t pred n =
  unindex t n;
  for l = 0 to Array.length n.forward - 1 do
    pred.(l).forward.(l) <- n.forward.(l)
  done;
  while t.level > 1 && t.head.forward.(t.level - 1) == t.nil do
    t.level <- t.level - 1
  done;
  t.length <- t.length - 1;
  t.removals <- t.removals + 1

(** [update t key f] inserts or modifies: [f None] for a fresh key (one
    descent), [f (Some old)] to replace (one hash probe). Returns the
    previous value. The descent's predecessors wait in the list's scratch
    vector while [f None] runs, so [f] must not touch the list. *)
let update t key f =
  let h = Repro_util.Fnv1a.hash key in
  let i = probe t h key (home t h) in
  let n = t.slots.(i) in
  if n != t.nil then begin
    let old = n.value in
    n.value <- f (Some old);
    Some old
  end
  else begin
    let pred = t.scratch in
    ignore (find_predecessors t key pred : 'a node);
    let lvl = fresh_level t pred in
    let node =
      { key; hash = h; value = f None; forward = Array.make lvl t.nil }
    in
    link t pred node lvl i;
    None
  end

(** [set t key v] is [update] ignoring the previous value. *)
let set t key v = ignore (update t key (fun _ -> v))

(** [remove t key] deletes the binding, returning the removed value. The
    descent that unlinks the node also finds it, so no key is hashed. *)
let remove t key =
  let n = (find_predecessors t key t.scratch).forward.(0) in
  if n != t.nil && String.equal n.key key then begin
    unlink t t.scratch n;
    Some n.value
  end
  else None

(** [min_binding t] is the smallest key, if any. *)
let min_binding t =
  let n = t.head.forward.(0) in
  if n == t.nil then None else Some (n.key, n.value)

(** [succ_geq t key] returns the smallest binding with key >= [key]:
    the snowshovel cursor's primitive. *)
let succ_geq t key =
  let n = (find_floor t key).forward.(0) in
  if n == t.nil then None else Some (n.key, n.value)

(** [iter_from t key f] applies [f] to bindings with key >= [key], in
    order, while [f] returns [true]. *)
let iter_from t key f =
  (* Position near key first to avoid O(n) prefix walk. *)
  let rec go n =
    if n != t.nil then
      if String.compare n.key key >= 0 then begin
        if f n.key n.value then go n.forward.(0)
      end
      else go n.forward.(0)
  in
  go (find_floor t key).forward.(0)

(** [iter t f] applies [f] to all bindings in key order. *)
let iter t f =
  let rec go n =
    if n != t.nil then begin
      f n.key n.value;
      go n.forward.(0)
    end
  in
  go t.head.forward.(0)

(** [fold t init f] folds bindings in key order. *)
let fold t init f =
  let rec go acc n =
    if n == t.nil then acc else go (f acc n.key n.value) n.forward.(0)
  in
  go init t.head.forward.(0)

let to_list t = List.rev (fold t [] (fun acc k v -> (k, v) :: acc))

(* {1 Cursors}

   Invariant: every finger entry [finger.(l)] is [head] or a linked node
   of more than [l] levels that lies behind the bound (key < [bound], or
   <= when the cursor is exclusive). Bounds never decrease, so a seek
   keeps every entry valid; an insert anywhere keeps them valid too, it
   may only leave an entry short of the rightmost such node. An unlink
   could free a finger node, so every unlink bumps [removals], and a
   cursor that has not seen the latest count re-descends from the head. *)

type 'a cursor = {
  list : 'a t;
  finger : 'a node array;
  mutable bound : string;
  mutable inclusive : bool; (* [peek] may return [bound] itself *)
  mutable last : 'a node; (* what [peek] returned; [nil] when unknown *)
  mutable seen : int; (* the list's [removals] the finger accounts for *)
}

let cursor t =
  {
    list = t;
    finger = Array.make max_level t.head;
    bound = "";
    inclusive = true;
    last = t.nil;
    seen = t.removals;
  }

(* [n] lies behind the bound: [peek] must not return it. *)
let behind c n =
  n != c.list.nil
  &&
  let d = String.compare n.key c.bound in
  d < 0 || (d = 0 && not c.inclusive)

(* Rightmost node behind the bound on level [lvl], walking from [x]. *)
let rec walk c x lvl =
  let nxt = x.forward.(lvl) in
  if behind c nxt then walk c nxt lvl else x

(* Make [finger.(0)] the rightmost node behind the bound. A finger
   search: climb while the finger's successor is still behind (usually
   not even one level), then descend from the first level whose finger
   is exact. A stale cursor descends from the head. *)
let locate c =
  let t = c.list in
  let f = c.finger in
  let top = t.level - 1 in
  let rec ascend l =
    if l >= top then begin
      f.(top) <- walk c f.(top) top;
      top
    end
    else if behind c f.(l).forward.(l) then ascend (l + 1)
    else l
  in
  let l =
    if c.seen = t.removals then ascend 0
    else begin
      Array.fill f 0 max_level t.head;
      c.seen <- t.removals;
      f.(top) <- walk c t.head top;
      top
    end
  in
  for lv = l - 1 downto 0 do
    f.(lv) <- walk c f.(lv + 1) lv
  done

let seek c key =
  c.bound <- key;
  c.inclusive <- true;
  c.last <- c.list.nil

let seek_after c key =
  let p = c.last in
  (* Stepping past the binding just peeked: it is the exact finger on
     its own levels, so the next peek costs one comparison. *)
  if p != c.list.nil && p.key == key && c.seen = c.list.removals then
    for l = 0 to Array.length p.forward - 1 do
      c.finger.(l) <- p
    done;
  c.bound <- key;
  c.inclusive <- false;
  c.last <- c.list.nil

let peek c =
  locate c;
  let n = c.finger.(0).forward.(0) in
  c.last <- n;
  if n == c.list.nil then None else Some (n.key, n.value)

let take c =
  let t = c.list in
  locate c;
  let n = c.finger.(0).forward.(0) in
  c.last <- t.nil;
  if n == t.nil then None
  else begin
    (* Above the exact levels a finger may trail [n]'s predecessor; it
       reaches it without a key comparison. *)
    for l = 1 to Array.length n.forward - 1 do
      let x = ref c.finger.(l) in
      while !x.forward.(l) != n do
        x := !x.forward.(l)
      done;
      c.finger.(l) <- !x
    done;
    unlink t c.finger n;
    c.seen <- t.removals;
    Some (n.key, n.value)
  end

let insert c key v =
  let t = c.list in
  let h = Repro_util.Fnv1a.hash key in
  let i = probe t h key (home t h) in
  let n = t.slots.(i) in
  c.bound <- key;
  c.last <- t.nil;
  if n != t.nil then begin
    n.value <- v;
    c.inclusive <- false
  end
  else begin
    c.inclusive <- true;
    locate c;
    let lvl = fresh_level t c.finger in
    (* Above level 0 a finger may trail the insertion point. *)
    for l = 1 to lvl - 1 do
      c.finger.(l) <- walk c c.finger.(l) l
    done;
    let node = { key; hash = h; value = v; forward = Array.make lvl t.nil } in
    link t c.finger node lvl i;
    for l = 0 to lvl - 1 do
      c.finger.(l) <- node
    done;
    c.inclusive <- false
  end
