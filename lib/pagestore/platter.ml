(** The simulated disk platter: durable page payloads.

    Pages written here survive a simulated crash; the buffer manager's
    dirty frames do not. Absent pages read as zeroes, like a freshly
    trimmed device.

    Pages live in fixed-size chunks of {!chunk_pages} consecutive page
    ids, indexed by [id / chunk_pages], so a transfer costs one array
    index plus one copy. A presence byte per page id says which slots
    hold a page; an absent slot is never read, so a chunk's bytes need no
    zeroing. A chunk whose last page is dropped goes onto a spare list,
    and new chunks come from that list before any is allocated: freed
    regions are rewritten soon after (§4.4.2), so a store that frees and
    rebuilds components keeps reusing the same chunks instead of feeding
    the major heap. Chunks are ordinary [Bytes], so device pages stay in
    the OCaml heap and heap measurements count them. *)

let chunk_pages = 16

type t = {
  page_size : int;
  mutable chunks : Bytes.t array; (* [no_chunk] where nothing is stored *)
  mutable live : int array; (* stored pages per chunk *)
  mutable present : Bytes.t; (* '\001' per stored page id *)
  mutable spare : Bytes.t list; (* released chunks, reused first *)
  mutable stored : int;
}

(* Shared placeholder for an absent chunk; compared with [==] only. *)
let no_chunk = Bytes.empty

let create ~page_size =
  {
    page_size;
    chunks = Array.make 64 no_chunk;
    live = Array.make 64 0;
    present = Bytes.make (64 * chunk_pages) '\000';
    spare = [];
    stored = 0;
  }

let page_size t = t.page_size

let is_present t id =
  id >= 0 && id < Bytes.length t.present
  && Bytes.unsafe_get t.present id <> '\000'

(* Byte offset of page [id] inside its chunk. *)
let offset t id = id mod chunk_pages * t.page_size

(** [read t id dst] copies page [id] into [dst] (zero-fills if absent). *)
let read t id dst =
  if is_present t id then
    Bytes.blit t.chunks.(id / chunk_pages) (offset t id) dst 0 t.page_size
  else Bytes.fill dst 0 t.page_size '\000'

(* Grow the per-chunk arrays (doubling) until chunk [c] has a slot. *)
let ensure_chunk_slot t c =
  let n = Array.length t.chunks in
  if c >= n then begin
    let n' = ref n in
    while c >= !n' do
      n' := 2 * !n'
    done;
    let chunks = Array.make !n' no_chunk in
    Array.blit t.chunks 0 chunks 0 n;
    let live = Array.make !n' 0 in
    Array.blit t.live 0 live 0 n;
    let present = Bytes.make (!n' * chunk_pages) '\000' in
    Bytes.blit t.present 0 present 0 (Bytes.length t.present);
    t.chunks <- chunks;
    t.live <- live;
    t.present <- present
  end

let take_chunk t =
  match t.spare with
  | b :: rest ->
      t.spare <- rest;
      b
  | [] -> Bytes.create (chunk_pages * t.page_size)

(** [write t id src] durably stores a copy of [src] as page [id]. *)
let write t id src =
  if id < 0 then invalid_arg "Platter.write";
  let c = id / chunk_pages in
  ensure_chunk_slot t c;
  if t.chunks.(c) == no_chunk then t.chunks.(c) <- take_chunk t;
  Bytes.blit src 0 t.chunks.(c) (offset t id) t.page_size;
  if Bytes.unsafe_get t.present id = '\000' then begin
    Bytes.unsafe_set t.present id '\001';
    t.live.(c) <- t.live.(c) + 1;
    t.stored <- t.stored + 1
  end

(** [drop t id] discards a page (region freed); space is reclaimed. *)
let drop t id =
  if is_present t id then begin
    let c = id / chunk_pages in
    Bytes.unsafe_set t.present id '\000';
    t.stored <- t.stored - 1;
    t.live.(c) <- t.live.(c) - 1;
    if t.live.(c) = 0 then begin
      t.spare <- t.chunks.(c) :: t.spare;
      t.chunks.(c) <- no_chunk
    end
  end

(** [corrupt t id ~byte ~bit] flips one stored bit — simulated bit rot.
    Returns false when the page was never written (nothing to rot). *)
let corrupt t id ~byte ~bit =
  if is_present t id && byte >= 0 && byte < t.page_size then begin
    let b = t.chunks.(id / chunk_pages) in
    let i = offset t id + byte in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit land 7))));
    true
  end
  else false

let stored_pages t = t.stored

let stored_bytes t = stored_pages t * t.page_size
