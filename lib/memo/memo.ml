(* Hash-partitioned shards: each shard owns a table, a mutex, its own
   hit/miss/eviction counters and a fixed ring of [cap] slots swept by a
   clock hand, so concurrent callers contend only when their keys land on
   the same shard.  Aggregate stats are sums over shards. *)

type 'a entry = { key : string; value : 'a; mutable referenced : bool }

type 'a shard = {
  table : (string, 'a entry) Hashtbl.t;
  ring : 'a entry option array;  (* length [cap]; slots [0, used) are filled *)
  mutable used : int;
  mutable hand : int;  (* next slot the clock inspects once the ring is full *)
  mutex : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type 'a t = {
  shards : 'a shard array;  (* length is a power of two *)
  mask : int;
}

type stats = { entries : int; hits : int; misses : int; evictions : int }
type view = View : 'a t -> view

let make_shard cap =
  {
    table = Hashtbl.create (Int.min cap 64);
    ring = Array.make cap None;
    used = 0;
    hand = 0;
    mutex = Mutex.create ();
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let create ?(shards = 16) ~capacity () =
  let requested = Int.max 1 shards in
  let n = ref 1 in
  while !n < requested do
    n := !n * 2
  done;
  let cap = Int.max 1 (capacity / !n) in
  { shards = Array.init !n (fun _ -> make_shard cap); mask = !n - 1 }

let shard_of t key = t.shards.(Hashtbl.hash key land t.mask)
let shards t = Array.length t.shards
let capacity t = Array.length t.shards * Array.length t.shards.(0).ring

let locked s f =
  Mutex.lock s.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.mutex) f

(* Second chance: the hand clears set reference bits until it meets a
   clear one, evicts that entry and leaves its slot for the newcomer.  Every
   bit the hand clears was set by a hit, so a sweep costs amortized O(1)
   per operation. *)
let insert s entry =
  let cap = Array.length s.ring in
  if s.used < cap then begin
    s.ring.(s.used) <- Some entry;
    s.used <- s.used + 1
  end
  else begin
    let rec victim () =
      match s.ring.(s.hand) with
      | Some e when e.referenced ->
          e.referenced <- false;
          s.hand <- (s.hand + 1) mod cap;
          victim ()
      | Some e -> Hashtbl.remove s.table e.key
      | None -> assert false (* a full ring has no empty slot *)
    in
    victim ();
    s.ring.(s.hand) <- Some entry;
    s.hand <- (s.hand + 1) mod cap;
    s.evictions <- s.evictions + 1
  end;
  Hashtbl.replace s.table entry.key entry

let find_or_add t key compute =
  let s = shard_of t key in
  match
    locked s (fun () ->
        match Hashtbl.find_opt s.table key with
        | Some e ->
            s.hits <- s.hits + 1;
            e.referenced <- true;
            Some e.value
        | None -> None)
  with
  | Some v -> (v, true)
  | None ->
      let v = compute () in
      let v =
        locked s (fun () ->
            s.misses <- s.misses + 1;
            match Hashtbl.find_opt s.table key with
            | Some e -> e.value (* a racing domain inserted the same result first *)
            | None ->
                insert s { key; value = v; referenced = false };
                v)
      in
      (v, false)

let shard_stats t =
  Array.map
    (fun s ->
      locked s (fun () ->
          {
            entries = Hashtbl.length s.table;
            hits = s.hits;
            misses = s.misses;
            evictions = s.evictions;
          }))
    t.shards

let sum stats =
  Array.fold_left
    (fun a s ->
      {
        entries = a.entries + s.entries;
        hits = a.hits + s.hits;
        misses = a.misses + s.misses;
        evictions = a.evictions + s.evictions;
      })
    { entries = 0; hits = 0; misses = 0; evictions = 0 }
    stats

let stats t = sum (shard_stats t)

(* Survivors keep their clock order from the hand and close up at the front
   of the ring, so the ring's invariant (slots [0, used) filled) holds. *)
let remove_if t drop =
  Array.iter
    (fun s ->
      locked s (fun () ->
          let cap = Array.length s.ring in
          let kept = ref [] in
          for k = cap - 1 downto 0 do
            match s.ring.((s.hand + k) mod cap) with
            | Some e when drop e.key ->
                Hashtbl.remove s.table e.key;
                s.evictions <- s.evictions + 1
            | Some e -> kept := Some e :: !kept
            | None -> ()
          done;
          Array.fill s.ring 0 cap None;
          List.iteri (fun i e -> s.ring.(i) <- e) !kept;
          s.used <- List.length !kept;
          s.hand <- 0))
    t.shards

let clear t = remove_if t (fun _ -> true)
