module Json = Indaas_util.Json
module Obs = Indaas_obs.Registry

type key = { snapshot_digest : string; spec_digest : string }

type entry = { value : Json.t; mutable used : int }

type t = {
  capacity : int;
  table : (key, entry) Hashtbl.t;
  mutable tick : int;  (** recency counter — deterministic LRU order *)
  mutable hits : int;
  mutable misses : int;
  mutable invalidated : int;
  mutable evicted : int;
}

let create ?(capacity = 1024) () =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be positive";
  {
    capacity;
    table = Hashtbl.create 64;
    tick = 0;
    hits = 0;
    misses = 0;
    invalidated = 0;
    evicted = 0;
  }

let touch t e =
  t.tick <- t.tick + 1;
  e.used <- t.tick

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some e ->
      t.hits <- t.hits + 1;
      Obs.incr "service.cache.hit";
      touch t e;
      Some e.value
  | None ->
      t.misses <- t.misses + 1;
      Obs.incr "service.cache.miss";
      None

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key e acc ->
        match acc with
        | Some (_, used) when used <= e.used -> acc
        | _ -> Some (key, e.used))
      t.table None
  in
  match victim with
  | Some (key, _) ->
      Hashtbl.remove t.table key;
      t.evicted <- t.evicted + 1;
      Obs.incr "service.cache.evicted"
  | None -> ()

let add t key value =
  if Hashtbl.mem t.table key then Hashtbl.remove t.table key
  else if Hashtbl.length t.table >= t.capacity then evict_lru t;
  let e = { value; used = 0 } in
  touch t e;
  Hashtbl.replace t.table key e

let invalidate_snapshot t ~digest =
  let doomed =
    Hashtbl.fold
      (fun key _ acc ->
        if key.snapshot_digest = digest then key :: acc else acc)
      t.table []
  in
  List.iter (Hashtbl.remove t.table) doomed;
  let n = List.length doomed in
  t.invalidated <- t.invalidated + n;
  if n > 0 then Obs.incr ~by:n "service.cache.invalidated";
  n

type stats = {
  entries : int;
  hits : int;
  misses : int;
  invalidated : int;
  evicted : int;
}

let stats t =
  {
    entries = Hashtbl.length t.table;
    hits = t.hits;
    misses = t.misses;
    invalidated = t.invalidated;
    evicted = t.evicted;
  }

let stats_to_json s =
  Json.Obj
    [
      ("entries", Json.Int s.entries);
      ("hits", Json.Int s.hits);
      ("misses", Json.Int s.misses);
      ("invalidated", Json.Int s.invalidated);
      ("evicted", Json.Int s.evicted);
    ]
