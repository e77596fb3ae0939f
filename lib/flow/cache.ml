(* Hash-partitioned shards: each shard owns a table, a mutex, its own
   hit/miss/eviction counters and a fixed ring of [cap] slots swept by a
   clock hand, so concurrent requests hitting a shared cache contend only
   when their keys land on the same shard.  Aggregate stats are sums over
   shards. *)

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

let default_shards = 16
let default_capacity = 2048

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

let create ?(shards = default_shards) ?(capacity = default_capacity) () =
  let requested = Int.max 1 shards in
  let n = ref 1 in
  while !n < requested do
    n := !n * 2
  done;
  let cap = Int.max 1 (capacity / !n) in
  { shards = Array.init !n (fun _ -> make_shard cap); mask = !n - 1 }

let shard_of t key = t.shards.(Hashtbl.hash key land t.mask)
let shards t = Array.length t.shards

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
            | Some e -> e.value (* a racing domain inserted the same pure result first *)
            | None ->
                insert s { key; value = v; referenced = false };
                v)
      in
      (v, false)

let sum_over t f = Array.fold_left (fun acc s -> acc + locked s (fun () -> f s)) 0 t.shards
let hits t = sum_over t (fun s -> s.hits)
let misses t = sum_over t (fun s -> s.misses)
let evictions t = sum_over t (fun s -> s.evictions)
let length t = sum_over t (fun s -> Hashtbl.length s.table)

type shard_stat = { s_length : int; s_hits : int; s_misses : int; s_evictions : int }

let shard_stats t =
  Array.map
    (fun s ->
      locked s (fun () ->
          {
            s_length = Hashtbl.length s.table;
            s_hits = s.hits;
            s_misses = s.misses;
            s_evictions = s.evictions;
          }))
    t.shards

let clear t =
  Array.iter
    (fun s ->
      locked s (fun () ->
          Hashtbl.reset s.table;
          Array.fill s.ring 0 (Array.length s.ring) None;
          s.used <- 0;
          s.hand <- 0;
          s.hits <- 0;
          s.misses <- 0;
          s.evictions <- 0))
    t.shards

let quantize ?(digits = 9) x =
  if Float.is_nan x || Float.is_integer x || not (Float.is_finite x) then x
  else float_of_string (Printf.sprintf "%.*e" (digits - 1) x)

let quantize_slew ?(grid = 0.1e-12) s = Float.round (s /. grid) *. grid
