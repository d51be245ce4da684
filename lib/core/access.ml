type kind = Read | Write_access of Tact_store.Write.id

type dep = { conit : string; bound : Bounds.t }

type t = {
  kind : kind;
  replica : int;
  submit_time : float;
  serve_time : float;
  return_time : float;
  deps : dep list;
  observed_vector : Tact_store.Version_vector.t;
  observed_tentative : Tact_store.Write.id list Lazy.t;
  observed_local : Tact_store.Write.id list Lazy.t;
  observed_result : Tact_store.Value.t;
}

let dep_for t conit = List.find_opt (fun d -> String.equal d.conit conit) t.deps
let depends_on t conit = Option.is_some (dep_for t conit)
let bound_for t conit = Option.map (fun d -> d.bound) (dep_for t conit)
