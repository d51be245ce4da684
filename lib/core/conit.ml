type t = {
  name : string;
  ne_bound : float;
  ne_rel_bound : float;
  oe_bound : float;
  st_bound : float;
  initial_value : float;
}

let declare ?(ne_bound = infinity) ?(ne_rel_bound = infinity) ?(oe_bound = infinity)
    ?(st_bound = infinity) ?(initial_value = 0.0) name =
  { name; ne_bound; ne_rel_bound; oe_bound; st_bound; initial_value }

let unconstrained name = declare name

let is_unconstrained c =
  Float.equal c.ne_bound infinity
  && Float.equal c.ne_rel_bound infinity
  && Float.equal c.oe_bound infinity
  && Float.equal c.st_bound infinity

let malformed c =
  let bad x = x < 0.0 || Float.is_nan x in
  bad c.ne_bound || bad c.ne_rel_bound || bad c.oe_bound || bad c.st_bound
  || Float.is_nan c.initial_value
