open Tact_store
open Tact_core

type computed = {
  conit : string;
  ne : float;
  ne_rel : float;
  oe_tentative : float;
  oe_lcp : float;
  st : float;
}

type violation = {
  access : Access.t;
  metrics : computed;
  dimension : string;
  bound : float;
}

let covered vector (id : Write.id) =
  Version_vector.covers vector ~origin:id.origin ~seq:id.seq

(* [all] is {!System.all_writes}: a fold and a sort over every write, so
   callers checking many accesses take it once ({!metrics}). *)
let metrics_against ~all sys (a : Access.t) =
  let return_time = System.return_time sys in
  let observed_pred id = covered a.observed_vector id in
  let actual =
    Ecg.actual_prefix ~all ~return_time ~stime:a.submit_time ~observed:observed_pred
  in
  let observed = List.filter (fun (w : Write.t) -> observed_pred w.id) all in
  let ecg = all (* already canonical *) in
  let local_writes =
    List.filter_map (System.find_write sys) (Lazy.force a.observed_local)
  in
  let tentative_writes =
    List.filter_map (System.find_write sys) (Lazy.force a.observed_tentative)
  in
  (* Writes that returned before submission but were not observed: the pool
     staleness is measured over. *)
  let unseen =
    List.filter
      (fun (w : Write.t) ->
        (not (observed_pred w.id)) && return_time w.id < a.submit_time)
      all
  in
  List.map
    (fun (d : Access.dep) ->
      let c = d.conit in
      let initial = (Config.conit (System.config sys) c).Conit.initial_value in
      let av = initial +. Metrics.value actual c in
      let ov = initial +. Metrics.value observed c in
      let ne = Float.abs (av -. ov) in
      let ne_rel =
        if Float.equal ne 0.0 then 0.0
        else if Float.equal av 0.0 then infinity
        else ne /. Float.abs av
      in
      {
        conit = c;
        ne;
        ne_rel;
        oe_tentative = Metrics.order_error_tentative ~tentative:tentative_writes c;
        oe_lcp = Metrics.order_error_lcp ~ecg ~local:local_writes c;
        st = Metrics.staleness ~now:a.submit_time ~unseen c;
      })
    a.deps

let metrics sys = metrics_against ~all:(System.all_writes sys) sys
let access_metrics sys a = metrics sys a

let check ?(lcp = false) ?(eps = 1e-9) sys =
  let violations = ref [] in
  let metrics = metrics sys in
  List.iter
    (fun (a : Access.t) ->
      let ms = metrics a in
      List.iter2
        (fun (d : Access.dep) m ->
          let b = d.bound in
          let record dim bound = violations := { access = a; metrics = m; dimension = dim; bound } :: !violations in
          if m.ne > b.Bounds.ne +. eps then record "ne" b.Bounds.ne;
          if m.ne_rel > b.Bounds.ne_rel +. eps then record "ne_rel" b.Bounds.ne_rel;
          if m.oe_tentative > b.Bounds.oe +. eps then record "oe" b.Bounds.oe;
          if lcp && m.oe_lcp > b.Bounds.oe +. eps then record "oe_lcp" b.Bounds.oe;
          if m.st > b.Bounds.st +. eps then record "st" b.Bounds.st)
        a.deps ms)
    (System.records sys);
  List.rev !violations

let summarize vs =
  match vs with
  | [] -> "no violations"
  | _ ->
    let buf = Buffer.create 256 in
    Buffer.add_string buf (Printf.sprintf "%d violations:\n" (List.length vs));
    List.iteri
      (fun i v ->
        if i < 20 then
          Buffer.add_string buf
            (Printf.sprintf
               "  replica %d t=%.3f conit %s: %s exceeded (ne=%g oe=%g/%g st=%g, bound %g)\n"
               v.access.Access.replica v.access.Access.submit_time v.metrics.conit
               v.dimension v.metrics.ne v.metrics.oe_tentative v.metrics.oe_lcp
               v.metrics.st v.bound))
      vs;
    Buffer.contents buf
